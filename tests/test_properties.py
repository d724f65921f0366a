"""Cross-module property-based tests (hypothesis).

Complements ``test_radio_agreement.py``: invariants of interval
algebra, the kill policy, flow reconstruction, CSV round-trips, and
widget-timer snapping, over adversarial random inputs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.policy import killed_days, max_bounded_run
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry
from repro.trace.flow import reconstruct_flows
from repro.trace.io_text import read_packets_csv, write_packets_csv
from repro.trace.packet import Direction, Packet
from repro.workload.generator import _snap_to_screen_on
from repro.workload.usermodel import intersect_with, merge_intervals


# ----------------------------------------------------------------------
# Interval algebra
# ----------------------------------------------------------------------
intervals_strategy = st.lists(
    st.tuples(st.floats(0, 1000), st.floats(0, 1000)).map(
        lambda ab: (min(ab), max(ab) + 0.001)
    ),
    max_size=30,
)


@given(intervals=intervals_strategy)
@settings(max_examples=100, deadline=None)
def test_merge_intervals_invariants(intervals):
    merged = merge_intervals(intervals)
    # Sorted, disjoint, positive-length.
    for i in range(len(merged)):
        assert merged[i, 1] > merged[i, 0]
        if i:
            assert merged[i, 0] > merged[i - 1, 1]
    # Total measure never exceeds the union bound and is at least the
    # longest input interval.
    if intervals:
        total = float((merged[:, 1] - merged[:, 0]).sum())
        longest = max(b - a for a, b in intervals)
        assert total >= longest - 1e-9
        assert total <= sum(b - a for a, b in intervals) + 1e-9


@given(
    intervals=intervals_strategy,
    window=st.tuples(st.floats(0, 1000), st.floats(0, 1000)),
)
@settings(max_examples=100, deadline=None)
def test_intersect_with_stays_inside(intervals, window):
    lo, hi = min(window), max(window)
    merged = merge_intervals(intervals)
    pieces = intersect_with(merged, (lo, hi))
    for start, end in pieces:
        assert lo <= start < end <= hi


# ----------------------------------------------------------------------
# Kill-policy day logic
# ----------------------------------------------------------------------
day_masks = st.integers(1, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)


@given(masks=day_masks, idle=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_killed_days_invariants(masks, idle):
    fg = np.array(masks[0], dtype=bool)
    bg = np.array(masks[1], dtype=bool)
    killed = killed_days(fg, bg, idle)
    # Never kill on a foreground day.
    assert not np.any(killed & fg)
    # Stricter thresholds kill a superset of lenient ones.
    lenient = killed_days(fg, bg, idle + 1)
    assert np.all(killed | ~lenient)  # lenient => killed


@given(masks=day_masks)
@settings(max_examples=100, deadline=None)
def test_max_bounded_run_bounds(masks):
    fg = np.array(masks[0], dtype=bool)
    bg_only = np.array(masks[1], dtype=bool) & ~fg
    run = max_bounded_run(fg, bg_only)
    assert 0 <= run <= int(bg_only.sum())


# ----------------------------------------------------------------------
# Flow reconstruction
# ----------------------------------------------------------------------
@st.composite
def random_packets(draw):
    n = draw(st.integers(1, 80))
    times = np.cumsum(
        np.array(draw(st.lists(st.floats(0.0, 200.0), min_size=n, max_size=n)))
    )
    packets = [
        Packet(
            timestamp=float(times[i]),
            size=draw(st.integers(40, 5000)),
            direction=Direction(draw(st.integers(0, 1))),
            app=draw(st.integers(1, 4)),
            conn=draw(st.integers(1, 6)),
        )
        for i in range(n)
    ]
    return PacketArray.from_packets(packets)


@given(packets=random_packets(), timeout=st.floats(1.0, 500.0))
@settings(max_examples=100, deadline=None)
def test_flows_partition_packets(packets, timeout):
    table = reconstruct_flows(packets, gap_timeout=timeout)
    # Every packet belongs to exactly one flow; byte totals partition.
    assert np.all(packets.flows >= 1)
    assert sum(f.total_bytes for f in table) == packets.total_bytes
    assert sum(f.packets for f in table) == len(packets)
    for flow in table:
        mask = packets.flows == flow.flow_id
        assert np.all(packets.apps[mask] == flow.app)
        assert np.all(packets.conns[mask] == flow.conn)
        span = packets.timestamps[mask]
        assert float(span.min()) == flow.start
        assert float(span.max()) == flow.end


@given(packets=random_packets())
@settings(max_examples=50, deadline=None)
def test_larger_timeout_merges_flows(packets):
    tight = reconstruct_flows(packets, gap_timeout=5.0)
    loose = reconstruct_flows(packets, gap_timeout=500.0)
    assert len(loose) <= len(tight)


# ----------------------------------------------------------------------
# CSV round trip
# ----------------------------------------------------------------------
@given(packets=random_packets())
@settings(max_examples=40, deadline=None)
def test_packets_csv_roundtrip(packets, tmp_path_factory):
    from repro.trace.dataset import AppInfo

    registry = AppRegistry(
        AppInfo(app_id, f"app.{app_id}", "x")
        for app_id in sorted({int(a) for a in packets.apps})
    )
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    write_packets_csv(path, packets, registry)
    restored = read_packets_csv(path, AppRegistry())
    assert len(restored) == len(packets)
    np.testing.assert_allclose(
        restored.timestamps, np.sort(packets.timestamps)
    )
    assert restored.total_bytes == packets.total_bytes


# ----------------------------------------------------------------------
# Widget timer snapping
# ----------------------------------------------------------------------
@given(
    times=st.lists(st.floats(0.0, 5000.0), max_size=40),
    intervals=intervals_strategy,
    min_sep=st.floats(0.0, 500.0),
)
@settings(max_examples=100, deadline=None)
def test_snap_to_screen_on_invariants(times, intervals, min_sep):
    fired = np.sort(np.array(times))
    screen = merge_intervals(intervals)
    snapped = _snap_to_screen_on(fired, screen, window_end=5000.0, min_separation=min_sep)
    # Sorted, unique, within window, separated.
    assert np.all(np.diff(snapped) > 0)
    assert np.all(snapped < 5000.0)
    if min_sep > 0 and len(snapped) > 1:
        assert np.all(np.diff(snapped) >= min_sep - 1e-9)
    # Every snapped time lies inside some screen-on interval (or exactly
    # at its start), and never before the firing that produced it.
    for t in snapped:
        inside = np.any((screen[:, 0] <= t) & (t < screen[:, 1])) or np.any(
            np.isclose(screen[:, 0], t)
        )
        assert inside
    # No refreshes at all when the screen never turns on.
    assert len(_snap_to_screen_on(fired, np.empty((0, 2)), 5000.0)) == 0
