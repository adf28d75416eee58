from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "Trace-enabled timing-model synthesis for ROS2 applications "
        "(DATE 2024 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # numpy is a hard dependency: the simulator's workload sampling
    # draws from numpy Generators, and the trace-store read path (column
    # consumer, sched bucketing, wide Alg. 2 windows) is vectorized.
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
