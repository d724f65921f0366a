"""Flow reconstruction."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.arrays import PacketArray
from repro.trace.flow import Flow, count_flows, reconstruct_flows
from repro.trace.packet import Direction

from conftest import make_packets


def test_split_by_conn():
    packets = make_packets(
        [
            (0.0, 100, Direction.UPLINK, 1, 1),
            (1.0, 200, Direction.DOWNLINK, 1, 2),
            (2.0, 300, Direction.DOWNLINK, 1, 1),
        ]
    )
    table = reconstruct_flows(packets)
    assert len(table) == 2
    flows = table.for_app(1)
    assert {f.total_bytes for f in flows} == {400, 200}


def test_split_by_gap_timeout():
    packets = make_packets(
        [
            (0.0, 100, Direction.UPLINK, 1, 1),
            (10.0, 100, Direction.UPLINK, 1, 1),
            (200.0, 100, Direction.UPLINK, 1, 1),  # > 60 s silence
        ]
    )
    table = reconstruct_flows(packets, gap_timeout=60.0)
    assert len(table) == 2


def test_large_timeout_keeps_one_flow():
    packets = make_packets(
        [
            (0.0, 100, Direction.UPLINK, 1, 1),
            (200.0, 100, Direction.UPLINK, 1, 1),
        ]
    )
    assert len(reconstruct_flows(packets, gap_timeout=3600.0)) == 1


def test_split_by_app():
    packets = make_packets(
        [
            (0.0, 100, Direction.UPLINK, 1, 1),
            (1.0, 100, Direction.UPLINK, 2, 1),
        ]
    )
    assert len(reconstruct_flows(packets)) == 2


def test_flow_ids_written_to_packets():
    packets = make_packets(
        [
            (0.0, 100, Direction.UPLINK, 1, 1),
            (1.0, 100, Direction.UPLINK, 1, 1),
            (2.0, 100, Direction.UPLINK, 2, 2),
        ]
    )
    table = reconstruct_flows(packets)
    assert set(np.unique(packets.flows)) == {1, 2}
    for flow in table:
        mask = packets.flows == flow.flow_id
        assert int(packets.sizes[mask].sum()) == flow.total_bytes


def test_flow_direction_split():
    packets = make_packets(
        [
            (0.0, 100, Direction.UPLINK, 1, 1),
            (1.0, 250, Direction.DOWNLINK, 1, 1),
        ]
    )
    flow = next(iter(reconstruct_flows(packets)))
    assert flow.bytes_up == 100
    assert flow.bytes_down == 250
    assert flow.duration == pytest.approx(1.0)
    assert flow.packets == 2


def test_flow_table_lookup():
    packets = make_packets([(0.0, 100, Direction.UPLINK, 1, 1)])
    table = reconstruct_flows(packets)
    assert table[1].app == 1
    with pytest.raises(KeyError):
        table[2]
    assert table.count_for_app(1) == 1
    assert table.count_for_app(9) == 0


def test_empty_packets():
    table = reconstruct_flows(make_packets([]))
    assert len(table) == 0


def test_rejects_bad_timeout():
    with pytest.raises(TraceError):
        reconstruct_flows(make_packets([]), gap_timeout=0.0)


def test_rejects_unsorted():
    packets = make_packets([(0.0, 10, Direction.UPLINK, 1), (1.0, 10, Direction.UPLINK, 1)])
    packets.data["timestamp"][0] = 5.0
    with pytest.raises(TraceError):
        reconstruct_flows(packets)


def test_interleaved_connections_stay_separate():
    packets = make_packets(
        [
            (0.0, 10, Direction.UPLINK, 1, 1),
            (0.5, 10, Direction.UPLINK, 1, 2),
            (1.0, 10, Direction.UPLINK, 1, 1),
            (1.5, 10, Direction.UPLINK, 1, 2),
        ]
    )
    table = reconstruct_flows(packets)
    assert len(table) == 2
    assert all(f.packets == 2 for f in table)


def test_count_flows_rejects_what_reconstruction_rejects():
    with pytest.raises(TraceError):
        count_flows(make_packets([]), gap_timeout=0.0)
    packets = make_packets([(0.0, 10, Direction.UPLINK, 1), (1.0, 10, Direction.UPLINK, 1)])
    packets.data["timestamp"][0] = 5.0
    with pytest.raises(TraceError):
        count_flows(packets)


def test_gap_equal_to_the_timeout_continues_the_flow():
    packets = make_packets(
        [
            (0.0, 10, Direction.UPLINK, 1, 1),
            (60.0, 10, Direction.UPLINK, 1, 1),  # exactly the timeout
            (120.5, 10, Direction.UPLINK, 1, 1),  # just over it
        ]
    )
    assert count_flows(packets, 60.0) == len(reconstruct_flows(packets, 60.0)) == 2


def test_conn_shared_by_two_apps_is_two_flows():
    packets = make_packets(
        [
            (0.0, 10, Direction.UPLINK, 1, 7),
            (1.0, 10, Direction.UPLINK, 2, 7),
            (2.0, 10, Direction.UPLINK, 1, 7),
        ]
    )
    assert count_flows(packets) == len(reconstruct_flows(packets)) == 2


def reference_flows(packets, gap_timeout):
    """Flow reconstruction as it stood before the flow rule moved into
    ``flow_boundaries``: (flows, flow column)."""
    ts = packets.timestamps
    apps = packets.apps.astype(np.int64)
    conns = packets.conns.astype(np.int64)
    sizes = packets.sizes.astype(np.int64)
    dirs = packets.directions
    n = len(ts)
    if n == 0:
        return [], np.empty(0, np.uint32)
    order = np.lexsort((ts, conns, apps))
    s_apps, s_conns, s_ts = apps[order], conns[order], ts[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = (
        (s_apps[1:] != s_apps[:-1])
        | (s_conns[1:] != s_conns[:-1])
        | ((s_ts[1:] - s_ts[:-1]) > gap_timeout)
    )
    flow_ids_sorted = np.cumsum(new_group)
    flow_ids = np.empty(n, dtype=np.uint32)
    flow_ids[order] = flow_ids_sorted
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], n)
    s_sizes, s_dirs = sizes[order], dirs[order]
    bytes_up = np.add.reduceat(np.where(s_dirs == int(Direction.UPLINK), s_sizes, 0), starts)
    bytes_down = np.add.reduceat(np.where(s_dirs == int(Direction.DOWNLINK), s_sizes, 0), starts)
    flows = [
        Flow(
            flow_id=i + 1,
            app=int(s_apps[starts[i]]),
            conn=int(s_conns[starts[i]]),
            start=float(s_ts[starts[i]]),
            end=float(s_ts[ends[i] - 1]),
            packets=int(ends[i] - starts[i]),
            bytes_up=int(bytes_up[i]),
            bytes_down=int(bytes_down[i]),
        )
        for i in range(int(flow_ids_sorted[-1]))
    ]
    return flows, flow_ids


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("gap_timeout", [0.5, 2.0, 60.0])
def test_flows_and_count_equal_the_reference(seed, gap_timeout):
    """Random traces on a half-second grid (so gaps equal the timeout),
    few apps and conn ids (so apps share conn ids)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    packets = PacketArray.from_columns(
        np.sort(rng.integers(0, 400, n) * 0.5),
        rng.integers(1, 1 << 32, n, dtype=np.uint64),
        rng.integers(0, 2, n),
        rng.integers(0, 4, n),
        rng.integers(0, 3, n),
    )
    want, column = reference_flows(packets, gap_timeout)
    assert count_flows(packets, gap_timeout) == len(want)
    assert list(reconstruct_flows(packets, gap_timeout)) == want
    assert packets.flows.tobytes() == column.tobytes()


def test_count_on_every_background_subset(small_dataset):
    """Table 1's use: each (user, app)'s background packets."""
    subsets = [
        trace.index().app_background_packets(app)
        for trace in small_dataset
        for app in trace.index()
    ]
    assert sum(len(subset) > 0 for subset in subsets) > 10
    for subset in subsets:
        assert count_flows(subset) == len(reconstruct_flows(subset))
