"""Pause CPython's cyclic garbage collector over a bulk build.

A store synthesis, an analysis build, a live-service ingest or a
recorded run allocates hundreds of thousands of container objects
(column tuples, payload dicts, CBList records) that stay alive until
the build returns.  Every 700 net allocations the collector's gen0
pass runs and, every tenth/hundredth pass, gen1 and the full gen2
pass re-scan all of them -- and free next to nothing, because the
builds make no reference cycles per event or per row
(:class:`~repro.store.reader.SegmentReader` holds none at all).  So
:class:`paused_gc` switches the cyclic collector off for the whole
build; reference counting still frees what a build drops, at once,
and the one young-generation pass the pause defers collects the few
cycles a build leaves.

The collector is process-wide, so is the pause: one depth counter
under a lock, shared by every thread.  The outermost pause disables
the collector (only if it was enabled) and the last one to end
re-enables it (only if a pause disabled it), so nested and overlapping
pauses on several threads -- the service's ingest and query threads
-- compose, and a caller that switched the collector off itself keeps
it off.  A child forked inside a pause (a worker pool started by a
paused build) starts with the depth reset and the collector enabled.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import ContextDecorator

_lock = threading.Lock()
#: pauses currently open, over every thread.
_depth = 0
#: True when the outermost open pause disabled the collector.
_disabled = False


class paused_gc(ContextDecorator):
    """Run the enclosed block (``with paused_gc():``) or the decorated
    function (``@paused_gc()``) with the cyclic collector paused.

    Bulk builds own no reference cycles, so a collection during one
    scans live objects and frees nothing; pausing leaves reference
    counting to free what the build drops.  Exception-safe and
    thread-safe (see the module docstring).  Nothing is allocated
    after the collector is re-enabled, so the one young-generation
    pass the pause deferred runs at the caller's next allocation,
    after the paused call has returned."""

    def __enter__(self) -> "paused_gc":
        global _depth, _disabled
        with _lock:
            if _depth == 0 and gc.isenabled():
                gc.disable()
                _disabled = True
            _depth += 1
        return self

    def __exit__(self, *exc) -> None:
        global _depth, _disabled
        # Not ``with _lock``: its exit call would allocate an argument
        # tuple after ``gc.enable()`` and run the deferred pass here.
        _lock.acquire()
        try:
            _depth -= 1
            if _depth == 0 and _disabled:
                _disabled = False
                gc.enable()
        finally:
            _lock.release()


def _after_fork_in_child() -> None:
    """A forked child owns no pause its parent had open."""
    global _lock, _depth, _disabled
    _lock = threading.Lock()  # the parent's may be held by another thread
    if _disabled:
        gc.enable()
    _depth = 0
    _disabled = False


os.register_at_fork(after_in_child=_after_fork_in_child)
