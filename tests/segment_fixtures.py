"""Fixture writers for the segment formats the program only reads.

The store writes v3 segments only, but it keeps reading v1 and v2
segments from older stores.  These encoders make v1/v2 bytes for the
read-side tests (and the CI upgrade lifecycle); they reproduce the
committed ``golden_v1.trace.bin`` / ``golden_v2.trace.bin`` byte for
byte.

* **v2** is a v2 header plus one body: the v3 raw sections
  concatenated in file order, deflated as a whole when compressed.
* **v1** interns every non-empty payload as canonical compact JSON and
  stores its string id in a fourth ROS column (no shape directory).

Importable from the repo root with ``PYTHONPATH=src:tests``::

    from segment_fixtures import encode_as, write_as

    raw = encode_as(trace, 1)                       # v1 bytes
    write_as(trace, "store/run000.trace.bin", 2)    # a v2 segment file
"""

from __future__ import annotations

import zlib
from array import array

from repro.store.format import (
    FLAG_ZLIB_BODY,
    NONE_CPU,
    NONE_ID,
    ROS_COLUMNS,
    SCHED_COLUMNS,
    VERSION,
    VERSION_V1,
    VERSION_V2,
    WAKEUP_COLUMNS,
    ZLIB_LEVEL,
    column_bytes,
    pack_header,
    pack_pid_map,
    pack_strings,
)
from repro.store.writer import SegmentSpool, StringTable, _encode_payload, encode_trace
from repro.tracing.session import Trace


def _v1_body(trace: Trace):
    """``(string count, body)`` of the v1 encoding: strings intern row
    by row -- probe, then payload JSON; sched comm/state/comm; wakeup
    comm -- ROS rows first, then sched, then wakeups."""
    strings = StringTable()
    intern = strings.intern
    ros = [array(code) for code in ROS_COLUMNS]
    for ts, pid, probe, data in trace.ros_events:
        row = (ts, pid, intern(probe), intern(_encode_payload(data)) if data else NONE_ID)
        for column, value in zip(ros, row):
            column.append(value)
    sched = [array(code) for code in SCHED_COLUMNS]
    for event in trace.sched_events:
        for field, (column, value) in enumerate(zip(sched, event)):
            column.append(intern(value) if field in (3, 5, 7) else value)
    wakeup = [array(code) for code in WAKEUP_COLUMNS]
    for ts, cpu, pid, comm, prio in trace.wakeup_events:
        row = (ts, NONE_CPU if cpu is None else cpu, pid, intern(comm), prio)
        for column, value in zip(wakeup, row):
            column.append(value)
    parts = [pack_pid_map(trace.pid_map), pack_strings(strings.strings)]
    parts += [column_bytes(column) for column in ros + sched + wakeup]
    return len(strings), b"".join(parts)


def _v2_body(trace: Trace):
    """``(string count, body)`` of the v2 encoding: the v3 sections'
    raw bytes, in file order, as one stream."""
    spool = SegmentSpool()
    spool.add_trace(trace)
    blobs = spool._section_blobs(trace.pid_map)
    # The shape directory interns its field names, so the string count
    # is read after the sections are built.
    return len(spool.strings), b"".join(raw for _, _, raw in blobs)


def encode_as(trace: Trace, version: int, compress: bool = True) -> bytes:
    """The segment bytes of ``trace`` in format ``version`` (1, 2 or 3)."""
    if version == VERSION:
        return encode_trace(trace, compress=compress)
    body_of = {VERSION_V1: _v1_body, VERSION_V2: _v2_body}[version]
    num_strings, body = body_of(trace)
    flags = 0
    if compress:
        body = zlib.compress(body, ZLIB_LEVEL)
        flags = FLAG_ZLIB_BODY
    header = pack_header(
        num_strings,
        len(trace.pid_map),
        len(trace.ros_events),
        len(trace.sched_events),
        len(trace.wakeup_events),
        trace.start_ts,
        trace.stop_ts,
        flags=flags,
        version=version,
    )
    return header + body


def write_as(trace: Trace, path: str, version: int, compress: bool = True) -> int:
    """Write ``trace`` at ``path`` in format ``version``; returns bytes
    written."""
    data = encode_as(trace, version, compress=compress)
    with open(path, "wb") as handle:
        return handle.write(data)
