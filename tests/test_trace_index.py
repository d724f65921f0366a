"""Property tests for the shared per-user TraceIndex.

The index's contract is exact equivalence with the boolean-mask scans it
replaces: for any trace, every grouped view must select the same rows in
the same order as ``packets.apps == app`` / ``np.isin(states, ...)``
masking — bit for bit, including the degenerate shapes (empty traces,
apps with a single packet, unlabelled-state sentinels).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.metrics import RunMetrics
from repro.trace.arrays import PacketArray, PACKET_DTYPE, STATE_UNLABELLED
from repro.trace.events import (
    BACKGROUND_STATES,
    FOREGROUND_STATES,
    EventLog,
    ProcessState,
    ProcessStateEvent,
    background_state_values,
    foreground_state_values,
)
from repro.trace.index import TraceIndex
from repro.trace.trace import UserTrace


def _random_packets(rng: np.random.Generator, n: int, n_apps: int) -> PacketArray:
    """A time-sorted random trace with random (possibly unlabelled) states."""
    data = np.empty(n, dtype=PACKET_DTYPE)
    data["timestamp"] = np.sort(rng.uniform(0.0, 1000.0, size=n))
    data["size"] = rng.integers(40, 1500, size=n)
    data["direction"] = rng.integers(0, 2, size=n)
    data["app"] = rng.integers(1, n_apps + 1, size=n)
    data["conn"] = rng.integers(1, 5, size=n)
    data["flow"] = 0
    states = [int(s) for s in ProcessState] + [STATE_UNLABELLED]
    data["state"] = rng.choice(states, size=n)
    return PacketArray(data)


def _bg_mask(packets: PacketArray) -> np.ndarray:
    return np.isin(packets.states, background_state_values())


def _fg_mask(packets: PacketArray) -> np.ndarray:
    return np.isin(packets.states, foreground_state_values())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n,n_apps", [(0, 3), (1, 1), (257, 5), (1000, 40)])
def test_grouped_views_equal_boolean_masks(seed, n, n_apps):
    rng = np.random.default_rng(seed)
    packets = _random_packets(rng, n, n_apps)
    index = TraceIndex(packets)
    present = set(int(a) for a in np.unique(packets.apps))
    assert set(int(a) for a in index.app_ids) == present
    # probe every present app plus one guaranteed-absent id
    for app in sorted(present) + [n_apps + 99]:
        mask = packets.apps == app
        idx = index.app_indices(app)
        np.testing.assert_array_equal(idx, np.flatnonzero(mask))
        assert np.all(np.diff(idx) > 0) or len(idx) <= 1  # ascending
        np.testing.assert_array_equal(
            index.app_packets(app).data, packets.data[mask]
        )
        np.testing.assert_array_equal(
            index.app_timestamps(app), packets.timestamps[mask]
        )
        assert index.app_count(app) == int(mask.sum())
        assert index.has_app(app) == bool(mask.any())
        np.testing.assert_array_equal(
            index.app_background_indices(app),
            np.flatnonzero(mask & _bg_mask(packets)),
        )
        np.testing.assert_array_equal(
            index.app_foreground_indices(app),
            np.flatnonzero(mask & _fg_mask(packets)),
        )


@pytest.mark.parametrize("seed", [0, 7])
def test_state_masks_and_bytes(seed):
    rng = np.random.default_rng(seed)
    packets = _random_packets(rng, 500, 12)
    index = TraceIndex(packets)
    np.testing.assert_array_equal(index.background_mask, _bg_mask(packets))
    np.testing.assert_array_equal(index.foreground_mask, _fg_mask(packets))
    np.testing.assert_array_equal(
        index.background_indices, np.flatnonzero(_bg_mask(packets))
    )
    assert index.bytes_by_app() == packets.bytes_by_app()


def test_single_packet_apps_and_sentinel():
    data = np.zeros(3, dtype=PACKET_DTYPE)
    data["timestamp"] = [1.0, 2.0, 3.0]
    data["size"] = [100, 200, 300]
    data["app"] = [7, 3, 9]
    data["state"] = [
        STATE_UNLABELLED,
        int(ProcessState.BACKGROUND),
        int(ProcessState.FOREGROUND),
    ]
    packets = PacketArray(data)
    index = TraceIndex(packets)
    assert list(index) == [3, 7, 9]
    assert index.app_count(3) == 1
    # the unlabelled sentinel (255) is neither foreground nor background
    assert len(index.app_background_indices(7)) == 0
    assert len(index.app_foreground_indices(7)) == 0
    np.testing.assert_array_equal(index.app_background_indices(3), [1])
    np.testing.assert_array_equal(index.app_foreground_indices(9), [2])
    assert 3 in index and 4 not in index and "3" not in index


def test_empty_trace():
    index = TraceIndex(PacketArray())
    assert len(index.app_ids) == 0
    assert list(index) == []
    assert index.bytes_by_app() == {}
    assert len(index.app_indices(1)) == 0
    assert len(index.background_indices) == 0
    assert not index.has_app(1)


def test_interned_state_values_match_enum_groups():
    assert set(background_state_values()) == {int(s) for s in BACKGROUND_STATES}
    assert set(foreground_state_values()) == {int(s) for s in FOREGROUND_STATES}
    assert background_state_values().dtype == np.uint8
    with pytest.raises(ValueError):
        background_state_values()[0] = 0  # interned arrays are read-only


def test_lazy_build_hits_and_metrics():
    rng = np.random.default_rng(8)
    packets = _random_packets(rng, 300, 6)
    metrics = RunMetrics()
    index = TraceIndex(packets, metrics=metrics)
    assert not index.is_grouped and index.build_seconds == 0.0
    index.app_indices(1)  # builds the grouping
    assert index.is_grouped
    built = index.build_seconds
    assert built > 0.0
    hits_before = index.hits
    index.app_indices(1)
    index.app_indices(2)
    assert index.hits > hits_before
    assert metrics.counter("index.hits") == index.hits
    assert metrics.stage_seconds("index.build") > 0.0
    # memo-served calls add no build time
    assert index.build_seconds == built


def test_invalidate_states_preserves_grouping():
    rng = np.random.default_rng(9)
    packets = _random_packets(rng, 200, 5)
    index = TraceIndex(packets)
    order_before = index.app_indices(1).copy()
    bg_before = index.background_mask.copy()
    # relabel every packet in place, as label_packet_states does
    packets.data["state"] = int(ProcessState.FOREGROUND)
    index.invalidate_states()
    assert index.is_grouped  # grouping survives: apps did not move
    np.testing.assert_array_equal(index.app_indices(1), order_before)
    assert index.background_mask.sum() == 0
    assert not np.array_equal(index.background_mask, bg_before) or not bg_before.any()
    np.testing.assert_array_equal(index.foreground_mask, np.ones(200, dtype=bool))


def test_trace_label_states_invalidates_index():
    data = np.zeros(2, dtype=PACKET_DTYPE)
    data["timestamp"] = [10.0, 20.0]
    data["size"] = [100, 100]
    data["app"] = [1, 1]
    data["state"] = STATE_UNLABELLED
    events = EventLog(
        process_events=[ProcessStateEvent(0.0, 1, ProcessState.BACKGROUND)]
    )
    trace = UserTrace(1, 0.0, 100.0, PacketArray(data), events)
    index = trace.index()
    assert index.background_mask.sum() == 0  # unlabelled
    trace.label_states()
    assert trace.index() is index  # same object, memos dropped
    assert index.background_mask.sum() == 2


def test_background_episodes_need_events():
    rng = np.random.default_rng(10)
    packets = _random_packets(rng, 20, 2)
    with pytest.raises(TraceError):
        TraceIndex(packets).background_episodes(1)
