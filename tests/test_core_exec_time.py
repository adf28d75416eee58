"""Unit + property tests for Alg. 2 (execution-time measurement).

The property tests build random preemption patterns with a known ground
truth and check that (a) the literal algorithm recovers it, (b) the
indexed fast path agrees with the literal algorithm on arbitrary event
soups.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SchedIndex, get_exec_time
from repro.sim import SchedSwitch


def switch(ts, prev_pid, next_pid, cpu=0):
    return SchedSwitch(
        ts=ts,
        cpu=cpu,
        prev_pid=prev_pid,
        prev_comm=f"p{prev_pid}",
        prev_prio=0,
        prev_state="R",
        next_pid=next_pid,
        next_comm=f"p{next_pid}",
        next_prio=0,
    )


class TestLiteralAlgorithm:
    def test_no_preemption(self):
        assert get_exec_time(100, 200, 7, []) == 100

    def test_single_preemption(self):
        events = [switch(120, 7, 9), switch(150, 9, 7)]
        assert get_exec_time(100, 200, 7, events) == 100 - 30

    def test_multiple_preemptions(self):
        events = [
            switch(110, 7, 1),
            switch(120, 1, 7),
            switch(160, 7, 2),
            switch(190, 2, 7),
        ]
        # Preempted for 10 + 30 ns.
        assert get_exec_time(100, 200, 7, events) == 100 - 40

    def test_events_outside_window_ignored(self):
        events = [switch(50, 7, 1), switch(60, 1, 7), switch(300, 7, 1)]
        assert get_exec_time(100, 200, 7, events) == 100

    def test_other_pids_ignored(self):
        events = [switch(120, 3, 4), switch(130, 4, 3)]
        assert get_exec_time(100, 200, 7, events) == 100

    def test_unsorted_input_sorted_internally(self):
        events = [switch(150, 9, 7), switch(120, 7, 9)]
        assert get_exec_time(100, 200, 7, events) == 70

    def test_switch_in_at_exact_end_not_double_counted(self):
        """Regression: a dispatch coinciding with the CB-end timestamp
        must not leave a stale segment start (discrete-clock boundary)."""
        events = [switch(130, 7, 9), switch(200, 9, 7)]
        assert get_exec_time(100, 200, 7, events) == 30

    def test_switch_out_at_exact_end(self):
        events = [switch(200, 7, 9)]
        assert get_exec_time(100, 200, 7, events) == 100

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            get_exec_time(200, 100, 7, [])

    def test_zero_window(self):
        assert get_exec_time(100, 100, 7, []) == 0


class TestSchedIndex:
    def test_matches_literal_simple(self):
        events = [switch(120, 7, 9), switch(150, 9, 7)]
        index = SchedIndex(events)
        assert index.exec_time(100, 200, 7) == get_exec_time(100, 200, 7, events)

    def test_pid_without_events(self):
        index = SchedIndex([])
        assert index.exec_time(0, 50, 3) == 50

    def test_preemption_time_complement(self):
        events = [switch(120, 7, 9), switch(150, 9, 7)]
        index = SchedIndex(events)
        assert index.exec_time(100, 200, 7) + index.preemption_time(100, 200, 7) == 100

    def test_pids_listed(self):
        index = SchedIndex([switch(10, 1, 2), switch(20, 2, 3)])
        assert index.pids() == [1, 2, 3]

    def test_idle_pid_not_indexed(self):
        index = SchedIndex([switch(10, 0, 5), switch(20, 5, 0)])
        assert index.pids() == [5]


@st.composite
def preemption_pattern(draw):
    """A window plus alternating out/in switch pairs with ground truth."""
    start = draw(st.integers(min_value=0, max_value=10**6))
    pid = 7
    t = start
    events = []
    preempted = 0
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        run = draw(st.integers(min_value=1, max_value=1000))
        gap = draw(st.integers(min_value=1, max_value=1000))
        t += run
        events.append(switch(t, pid, 9))
        events.append(switch(t + gap, 9, pid))
        preempted += gap
        t += gap
    tail = draw(st.integers(min_value=1, max_value=1000))
    end = t + tail
    return start, end, pid, events, (end - start) - preempted


class TestGroundTruthProperty:
    @given(preemption_pattern())
    @settings(max_examples=200)
    def test_literal_recovers_ground_truth(self, pattern):
        start, end, pid, events, truth = pattern
        assert get_exec_time(start, end, pid, events) == truth

    @given(preemption_pattern())
    @settings(max_examples=200)
    def test_index_recovers_ground_truth(self, pattern):
        start, end, pid, events, truth = pattern
        assert SchedIndex(events).exec_time(start, end, pid) == truth


@st.composite
def event_soup(draw):
    """Arbitrary-but-causally-plausible switch sequences for several
    pids on one CPU (alternating run intervals)."""
    pids = [1, 2, 3]
    t = 0
    current = draw(st.sampled_from(pids))
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        t += draw(st.integers(min_value=1, max_value=500))
        nxt = draw(st.sampled_from([p for p in pids if p != current]))
        events.append(switch(t, current, nxt))
        current = nxt
    return events


class TestEquivalenceProperty:
    @given(
        soup=event_soup(),
        start=st.integers(min_value=0, max_value=5000),
        width=st.integers(min_value=0, max_value=5000),
        pid=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=200)
    def test_index_equals_literal_on_arbitrary_windows(self, soup, start, width, pid):
        end = start + width
        assert SchedIndex(soup).exec_time(start, end, pid) == get_exec_time(
            start, end, pid, soup
        )

    @given(
        soup=event_soup(),
        start=st.integers(min_value=0, max_value=5000),
        width=st.integers(min_value=0, max_value=5000),
        pid=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=200)
    def test_exec_time_bounded_by_window(self, soup, start, width, pid):
        value = SchedIndex(soup).exec_time(start, start + width, pid)
        assert 0 <= value <= width


@st.composite
def multi_pid_soup(draw):
    """Sched streams over PIDs 1-4 with self-switches (toggles), equal
    timestamps and out-of-order input: any switch, not only plausible
    ones.  PID 5 never appears, so it has no bucket."""
    pids = st.integers(min_value=1, max_value=4)
    events = []
    t = 0
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        t += draw(st.sampled_from([0, 0, 1, 3, 50]))
        prev = draw(pids)
        nxt = prev if draw(st.booleans()) else draw(pids)
        events.append(switch(t, prev, nxt))
    if draw(st.booleans()):
        events = draw(st.permutations(events))
    return events, t


@st.composite
def window_sets(draw, horizon):
    """Windows in any order: overlapping, zero-length, and sharing
    bounds with each other and with event timestamps."""
    bounds = st.integers(min_value=-5, max_value=horizon + 5)
    windows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        pid = draw(st.integers(min_value=1, max_value=5))
        if windows and draw(st.booleans()):
            start = draw(st.sampled_from([w[1] for w in windows] + [w[2] for w in windows]))
        else:
            start = draw(bounds)
        end = start + draw(st.sampled_from([0, 0, 1, 2, 10, 60, 400]))
        windows.append((pid, start, end))
    return windows


class TestBatchedExecTimes:
    """``SchedIndex.exec_times`` -- Alg. 2 over many windows in one
    call -- against the literal translation, window by window."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_exec_times_equal_literal_per_window(self, data):
        soup, horizon = data.draw(multi_pid_soup())
        windows = data.draw(window_sets(horizon))
        index = SchedIndex(soup)
        got = index.exec_times(
            [w[0] for w in windows], [w[1] for w in windows], [w[2] for w in windows]
        ).tolist()
        assert got == [get_exec_time(s, e, p, soup) for p, s, e in windows]
        assert [index.exec_time(s, e, p) for p, s, e in windows] == got

    def test_no_windows(self):
        assert SchedIndex([switch(5, 1, 2)]).exec_times([], [], []).tolist() == []

    def test_first_inverted_window_raises(self):
        index = SchedIndex([switch(5, 1, 2)])
        with pytest.raises(ValueError, match="end 3 precedes start 4"):
            index.exec_times([1, 1, 2], [0, 4, 9], [10, 3, 1])

    def test_timestamps_too_wide_for_one_key_axis(self):
        """Buckets spanning more than 2**61 ns in all do not fit the one
        int64 key axis the windows are searched on: a diagnosed error,
        never an overflowed answer."""
        far = 2**62
        index = SchedIndex([switch(0, 1, 2), switch(far, 1, 3)])
        with pytest.raises(ValueError, match="more than 2\\*\\*61 ns"):
            index.exec_times([1], [0], [far])
