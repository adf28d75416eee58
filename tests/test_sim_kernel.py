"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import MSEC, SEC, SimKernel, USEC
from repro.sim.kernel import _COMPACT_MIN_QUEUE


class TestScheduling:
    def test_events_fire_in_time_order(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule_at(30, lambda: fired.append(30))
        kernel.schedule_at(10, lambda: fired.append(10))
        kernel.schedule_at(20, lambda: fired.append(20))
        kernel.run()
        assert fired == [10, 20, 30]

    def test_same_time_events_fifo(self):
        kernel = SimKernel()
        fired = []
        for tag in range(5):
            kernel.schedule_at(100, lambda t=tag: fired.append(t))
        kernel.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule_at(100, lambda: fired.append("low"), priority=5)
        kernel.schedule_at(100, lambda: fired.append("high"), priority=0)
        kernel.run()
        assert fired == ["high", "low"]

    def test_schedule_after_relative(self):
        kernel = SimKernel()
        marks = []
        kernel.schedule_at(10, lambda: kernel.schedule_after(5, lambda: marks.append(kernel.now)))
        kernel.run()
        assert marks == [15]

    def test_schedule_in_past_rejected(self):
        kernel = SimKernel()
        kernel.schedule_at(10, lambda: None)
        kernel.run()
        with pytest.raises(ValueError):
            kernel.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        kernel = SimKernel()
        with pytest.raises(ValueError):
            kernel.schedule_after(-1, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        kernel = SimKernel()
        fired = []
        handle = kernel.schedule_at(10, lambda: fired.append(1))
        handle.cancel()
        kernel.run()
        assert fired == []
        assert not handle.pending

    def test_cancel_is_idempotent(self):
        kernel = SimKernel()
        handle = kernel.schedule_at(10, lambda: None)
        handle.cancel()
        handle.cancel()
        kernel.run()

    def test_cancel_from_earlier_event(self):
        kernel = SimKernel()
        fired = []
        later = kernel.schedule_at(20, lambda: fired.append("later"))
        kernel.schedule_at(10, later.cancel)
        kernel.run()
        assert fired == []

    def test_pending_count_ignores_cancelled(self):
        kernel = SimKernel()
        keep = kernel.schedule_at(10, lambda: None)
        drop = kernel.schedule_at(20, lambda: None)
        drop.cancel()
        assert kernel.pending_count() == 1


class TestRunControl:
    def test_run_until_advances_clock_to_bound(self):
        kernel = SimKernel()
        kernel.schedule_at(10, lambda: None)
        kernel.run(until=100)
        assert kernel.now == 100

    def test_run_until_excludes_later_events(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule_at(10, lambda: fired.append(10))
        kernel.schedule_at(200, lambda: fired.append(200))
        kernel.run(until=100)
        assert fired == [10]
        kernel.run()
        assert fired == [10, 200]

    def test_run_until_includes_boundary_events(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule_at(100, lambda: fired.append(100))
        kernel.run(until=100)
        assert fired == [100]

    def test_max_events(self):
        kernel = SimKernel()
        fired = []
        for i in range(10):
            kernel.schedule_at(i, lambda i=i: fired.append(i))
        kernel.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        kernel = SimKernel()
        assert kernel.step() is False

    def test_reentrant_run_rejected(self):
        kernel = SimKernel()

        def recurse():
            kernel.run()

        kernel.schedule_at(1, recurse)
        with pytest.raises(RuntimeError):
            kernel.run()

    def test_events_spawned_during_run_execute(self):
        kernel = SimKernel()
        fired = []

        def cascade(depth):
            fired.append(depth)
            if depth < 5:
                kernel.schedule_after(1, lambda: cascade(depth + 1))

        kernel.schedule_at(0, lambda: cascade(0))
        kernel.run()
        assert fired == [0, 1, 2, 3, 4, 5]


class TestClockProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=50))
    def test_clock_monotonic_over_arbitrary_schedules(self, times):
        kernel = SimKernel()
        observed = []
        for t in times:
            kernel.schedule_at(t, lambda: observed.append(kernel.now))
        kernel.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)

    def test_constants(self):
        assert USEC == 1_000
        assert MSEC == 1_000_000
        assert SEC == 1_000_000_000


# ---------------------------------------------------------------------------
# Slab fast path: tokens, slot recycling, compaction
# ---------------------------------------------------------------------------


class TestPostAfterTokens:
    """The hot-path scheduling API: int tokens over the slab."""

    def test_post_after_runs_fn_with_args(self):
        kernel = SimKernel()
        fired = []
        kernel.post_after(7, lambda a, b: fired.append((kernel.now, a, b)), (1, 2))
        kernel.post_after(3, fired.append, ("first",))
        kernel.run()
        assert fired == ["first", (7, 1, 2)]

    def test_negative_delay_rejected(self):
        kernel = SimKernel()
        with pytest.raises(ValueError):
            kernel.post_after(-1, lambda: None)

    def test_cancel_returns_true_once(self):
        kernel = SimKernel()
        fired = []
        token = kernel.post_after(5, fired.append, (1,))
        assert kernel.cancel(token) is True
        assert kernel.cancel(token) is False
        kernel.run()
        assert fired == []

    def test_stale_token_after_firing_is_a_noop(self):
        kernel = SimKernel()
        fired = []
        token = kernel.post_after(1, fired.append, ("a",))
        kernel.run()
        assert fired == ["a"]
        assert kernel.cancel(token) is False

    def test_stale_token_cannot_cancel_a_recycled_slot(self):
        """The generation tag protects recycled slots: a token whose
        event already fired must not cancel the *new* occupant of the
        same slab slot."""
        kernel = SimKernel()
        fired = []
        stale = kernel.post_after(1, fired.append, ("old",))
        kernel.run()
        # The slot just freed is recycled by the next post.
        kernel.post_after(1, fired.append, ("new",))
        assert kernel.cancel(stale) is False
        kernel.run()
        assert fired == ["old", "new"]

    def test_tokens_interleave_with_handle_api(self):
        """post_after events order identically to schedule_* ones."""
        kernel = SimKernel()
        fired = []
        kernel.schedule_after(5, lambda: fired.append("handle"))
        kernel.post_after(5, fired.append, ("token",))
        kernel.schedule_at(2, lambda: fired.append("early"))
        kernel.run()
        assert fired == ["early", "handle", "token"]


@pytest.mark.parametrize("kernel_cls", [SimKernel])
class TestCompaction:
    """cancelled/compactions counters and the compact_min_queue knob."""

    def test_invalid_threshold_rejected(self, kernel_cls):
        with pytest.raises(ValueError):
            kernel_cls(compact_min_queue=-1)

    def test_default_threshold_is_the_documented_constant(self, kernel_cls):
        assert kernel_cls().compact_min_queue == _COMPACT_MIN_QUEUE == 64

    def test_small_queues_never_compact(self, kernel_cls):
        kernel = kernel_cls()  # default floor: 64
        handles = [kernel.schedule_at(i + 1, lambda: None) for i in range(20)]
        for handle in handles[:15]:
            handle.cancel()
        assert kernel.cancelled == 15
        assert kernel.compactions == 0
        kernel.run()

    def test_majority_cancelled_triggers_compaction(self, kernel_cls):
        """Compaction fires once cancelled entries *exceed* half the
        queue (20 of 40 is not enough; the 21st trips it)."""
        kernel = kernel_cls(compact_min_queue=0)
        fired = []
        handles = [
            kernel.schedule_at(i + 1, (lambda i=i: fired.append(i)))
            for i in range(40)
        ]
        for handle in handles[1::2]:
            handle.cancel()
        assert kernel.cancelled == 20
        assert kernel.compactions == 0
        handles[0].cancel()
        assert kernel.compactions == 1
        kernel.run()
        assert fired == list(range(2, 40, 2))

    def test_threshold_does_not_change_results(self, kernel_cls):
        """Compaction is invisible: identical fire order at both
        extremes of the knob."""

        def drive(kernel):
            fired = []
            handles = {}
            for i in range(60):
                handles[i] = kernel.schedule_at(
                    (i * 13) % 97 + 1, (lambda i=i: fired.append(i)), priority=i % 3
                )
            for i in range(0, 60, 3):
                handles[i].cancel()
            kernel.run()
            return fired, kernel.cancelled

        eager, eager_cancels = drive(kernel_cls(compact_min_queue=0))
        never, never_cancels = drive(kernel_cls(compact_min_queue=1 << 30))
        assert eager == never
        assert eager_cancels == never_cancels == 20


class TestEventHandleOrderingRemoved:
    """The heap keys on (time, priority, seq) tuples, so handles carry
    no ordering; pin the removal so ``__lt__`` can't silently return
    (and rot unexercised)."""

    def test_slab_handles_do_not_order(self):
        kernel = SimKernel()
        a = kernel.schedule_at(1, lambda: None)
        b = kernel.schedule_at(2, lambda: None)
        with pytest.raises(TypeError):
            a < b  # noqa: B015 -- the raise *is* the assertion
