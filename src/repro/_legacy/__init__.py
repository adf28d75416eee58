"""Frozen Alg. 1/2 oracles: the pre-index extraction and exec-time code.

Verbatim copies of Alg. 1 extraction and the Alg. 2 exec-time index as
they stood *before* the single-pass :class:`repro.core.index.TraceIndex`
layer.  They stay because a committed digest cannot replace them: the
tests compare the production pipeline against them on *random* inputs
(hypothesis event soups and generated apps, unsorted streams, stores
built by the CI smoke steps), which no table of fixed outputs covers.
``repro perf``'s synthesis micro-benchmark also times against them.

The simulator needs no such copy: its output on the fixed registry
scenarios is pinned by ``tests/data/golden_digests.json``.

Nothing but the tests and the perf harness may import from this
package (a test checks that importing the CLI, world, store, service
and analysis packages loads none of it), and nothing in it may be
optimized: its value is that it does not change.
"""

from .exec_time import SchedIndex as LegacySchedIndex
from .extraction import extract_all as legacy_extract_all

__all__ = ["LegacySchedIndex", "legacy_extract_all"]
