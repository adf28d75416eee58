"""``repro.store``: binary trace store + out-of-core synthesis.

The scalable back end of the paper's Fig. 2 "database server": per-run
struct-packed columnar segment files (``.trace.bin``), written from
in-memory traces or streamed during simulation, read back lazily with
PID selection and k-way merging, and synthesized into timing DAGs by
the columnar Alg. 1 walk -- all byte-identical to the in-memory
pipeline.  Worker processes shard runs, never PIDs: recording writes
runs in parallel, and the ``merge_dags`` strategy synthesizes one DAG
per run on ``jobs`` workers.

Quickstart::

    from repro.store import record_batch, synthesize_from_store

    record_batch("avp", runs=16, directory="traces/", jobs=4)
    dag = synthesize_from_store("traces/")

or from a shell: ``python -m repro record avp --runs 16 --out traces/
--jobs 4`` then ``python -m repro synthesize traces/`` (``--strategy
merge-dags --jobs 4`` for the per-run DAGs on four workers).
"""

from .database import (
    RunInfo,
    StoreDatabase,
    StoreError,
    TraceStore,
    as_store,
    convert_database,
    save_database_binary,
)
from .format import (
    NONE_CPU,
    NONE_ID,
    SEGMENT_SUFFIX,
    SUPPORTED_VERSIONS,
    VERSION,
    VERSION_V1,
    StoreFormatError,
)
from .reader import (
    InMemorySegment,
    SegmentReader,
    merge_ros_streams,
    merge_sched_streams,
    merge_wakeup_streams,
    peek_header,
)
from .record import (
    DEFAULT_SPOOL_NS,
    RecordResult,
    RecordedRun,
    record_batch,
    record_run,
    run_id_for,
)
from .index import StoreTraceIndex
from .synthesis import synthesize_from_store
from .writer import SegmentSpool, encode_trace, segment_path, write_segment

__all__ = [
    "RunInfo",
    "StoreDatabase",
    "StoreError",
    "TraceStore",
    "as_store",
    "convert_database",
    "save_database_binary",
    "NONE_CPU",
    "NONE_ID",
    "SEGMENT_SUFFIX",
    "SUPPORTED_VERSIONS",
    "VERSION",
    "VERSION_V1",
    "StoreFormatError",
    "peek_header",
    "InMemorySegment",
    "SegmentReader",
    "merge_ros_streams",
    "merge_sched_streams",
    "merge_wakeup_streams",
    "DEFAULT_SPOOL_NS",
    "RecordResult",
    "RecordedRun",
    "record_batch",
    "record_run",
    "run_id_for",
    "StoreTraceIndex",
    "synthesize_from_store",
    "SegmentSpool",
    "encode_trace",
    "segment_path",
    "write_segment",
]
