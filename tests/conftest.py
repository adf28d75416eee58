"""Shared pytest configuration.

``stress`` marks the tests that run two processes or threads against
one store (service threads, a second writer or watcher process,
processes filling one segment cache).  They run once in the tier-1 suite;
CI repeats ``pytest -m stress`` so that a race shows up as a failure
rather than as an occasional flake.
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "stress: runs processes or threads concurrently against one store",
    )
