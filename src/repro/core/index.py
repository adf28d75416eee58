"""Probe codes and per-string-id tables for the columnar Alg. 1 walk.

Alg. 1 and the cross-node association tables dispatch on a small
integer *probe code* per ROS event instead of re-testing probe-name
membership.  A stored segment (and an in-memory trace presented as one,
see :class:`~repro.store.reader.InMemorySegment`) references probe names
by string id, so the code and the CB-type label resolve once per
string-table entry; :class:`~repro.store.index.StoreTraceIndex` then
turns a whole probe-id column into per-row codes with one numpy gather.

The payload of an ID-carrying row reaches the walk as a *field tuple*:
the five payload fields Alg. 1, the association tables and the latency
index read (:data:`PAYLOAD_FIELDS`), ``None`` where the payload has no
such key -- what ``payload.get(key)`` would return.  Readers read them
by position (``F_CB_ID`` .. ``F_WILL_DISPATCH``).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..tracing.events import (
    CB_END_PROBES,
    CB_TYPE_BY_START,
    CB_START_PROBES,
    P3_TIMER_CALL,
    P6_TAKE,
    P7_SYNC_OP,
    P10_TAKE_REQUEST,
    P13_TAKE_RESPONSE,
    P14_TAKE_TYPE_ERASED,
    P16_DDS_WRITE,
)

#: (topic, source timestamp) -- the paper's cross-node correlation key.
TopicKey = Tuple[Optional[str], Optional[int]]

# Integer probe codes.  The codes whose payload Alg. 1 (or the
# cross-node table build) dereferences are contiguous --
# ``CODE_TIMER_CALL <= code <= CODE_TAKE_TYPE_ERASED`` is the hot-path
# test -- so a columnar walk skips payload decode for every other row.
CODE_OTHER = 0
CODE_CB_START = 1
CODE_TIMER_CALL = 2
CODE_TAKE = 3
CODE_TAKE_REQUEST = 4
CODE_TAKE_RESPONSE = 5
CODE_DDS_WRITE = 6
CODE_TAKE_TYPE_ERASED = 7
CODE_SYNC_OP = 8
CODE_CB_END = 9

#: The payload keys an ID-carrying row's field tuple holds, in order.
PAYLOAD_FIELDS = ("cb_id", "topic", "src_ts", "kind", "will_dispatch")
F_CB_ID, F_TOPIC, F_SRC_TS, F_KIND, F_WILL_DISPATCH = range(len(PAYLOAD_FIELDS))
#: The field tuple of an empty payload.
NO_FIELDS: Tuple[None, ...] = (None,) * len(PAYLOAD_FIELDS)

PROBE_CODES: Dict[str, int] = {p: CODE_CB_START for p in CB_START_PROBES}
PROBE_CODES.update({p: CODE_CB_END for p in CB_END_PROBES})
PROBE_CODES[P3_TIMER_CALL] = CODE_TIMER_CALL
PROBE_CODES[P6_TAKE] = CODE_TAKE
PROBE_CODES[P10_TAKE_REQUEST] = CODE_TAKE_REQUEST
PROBE_CODES[P13_TAKE_RESPONSE] = CODE_TAKE_RESPONSE
PROBE_CODES[P16_DDS_WRITE] = CODE_DDS_WRITE
PROBE_CODES[P14_TAKE_TYPE_ERASED] = CODE_TAKE_TYPE_ERASED
PROBE_CODES[P7_SYNC_OP] = CODE_SYNC_OP


def probe_code_table(strings: Sequence[str]) -> bytearray:
    """Probe code per string-table id (``CODE_OTHER`` for non-probes).

    A stored segment references probe names by string id, so resolving
    the code once per *table entry* replaces a per-event dict lookup on
    the probe string with a bytearray index on the stored id.
    """
    return bytearray(map(PROBE_CODES.get, strings, repeat(CODE_OTHER)))


def probe_code_lut(code_table: Sequence[int]) -> np.ndarray:
    """The per-string-id code table as a numpy ``uint8`` lookup array:
    one fancy-index turns a segment's whole probe-id column into
    per-row codes (see ``store.index.StoreTraceIndex``)."""
    return np.frombuffer(bytes(code_table), dtype=np.uint8)


def cb_start_type_table(strings: Sequence[str]) -> List[Optional[str]]:
    """Callback-type label per string-table id (None for non-start
    probes) -- the columnar counterpart of :meth:`TraceEvent.cb_type`."""
    return list(map(CB_TYPE_BY_START.get, strings))


def payload_fields(payloads: Iterable[Mapping[str, Any]]) -> List[Tuple]:
    """Decoded payload dicts projected to their field tuples: one
    C-level ``dict.get`` map per field and one ``zip``, no Python call
    per payload.  The projection of JSON-fallback rows and of loaded
    traces; typed payload shapes zip their field columns instead."""
    payloads = list(payloads)
    return list(zip(*(
        map(dict.get, payloads, repeat(key)) for key in PAYLOAD_FIELDS
    )))
