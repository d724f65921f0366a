"""CadenceTracker against a frozen per-group reference, byte for byte.

:class:`LegacyCadenceTracker` keeps the tracker's ``observe`` as it was
before it was vectorised: one ``np.diff`` and a few dict operations for
each ``(app, conn)`` group and each app of a chunk, copied verbatim and
renamed only. The vectorised tracker must leave the same state after
any sequence of chunks — every ``payload()`` member equal in dtype and
bytes, every ``summary()`` count and interval array equal — however the
packets are chunked, and across ``payload()`` → ``from_payload()``
round trips at any chunk boundary.

Generated inputs put timestamps on a 0.5 s grid, so gaps of exactly the
default burst gap (30 s) and flow gap (3,600 s) are common and a ``>=``
in place of either strict ``>`` fails here; ties fall within and
across chunks.
"""

from typing import Container, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import StudyConfig, generate_study
from repro.core.periodicity import DEFAULT_BURST_GAP
from repro.core.readout import DEFAULT_FLOW_GAP
from repro.stream.cadence import CadenceTracker
from repro.trace.arrays import PACKET_DTYPE, PacketArray
from repro.trace.events import BACKGROUND_STATE_VALUES, ProcessState


class LegacyCadenceTracker(CadenceTracker):
    """The per-group loop the vectorised ``observe`` replaced.

    ``observe`` also keeps the ``np.isin`` background mask that
    ``state_background_mask`` used to be.
    """

    def observe(self, packets: PacketArray) -> None:
        """Fold one raw (time-sorted) chunk into the cadence state."""
        if len(packets) == 0:
            return
        mask = np.isin(packets.states, BACKGROUND_STATE_VALUES)
        if not mask.any():
            return
        ts = packets.timestamps[mask]
        apps = packets.apps.astype(np.int64)[mask]
        conns = packets.conns.astype(np.int64)[mask]
        self._observe_bursts(apps, ts)
        self._observe_flows(apps, conns, ts)

    def _observe_bursts(self, apps: np.ndarray, ts: np.ndarray) -> None:
        order = np.argsort(apps, kind="stable")
        s_apps = apps[order]
        s_ts = ts[order]
        group_starts = np.flatnonzero(
            np.concatenate([[True], s_apps[1:] != s_apps[:-1]])
        )
        bounds = np.append(group_starts, len(s_apps))
        for i, lo in enumerate(group_starts):
            app = int(s_apps[lo])
            t = s_ts[lo : bounds[i + 1]]
            last_ts = self._burst_last_ts.get(app)
            if last_ts is None:
                is_start = np.concatenate(
                    [[True], np.diff(t) > self.burst_gap]
                )
            else:
                prev = np.concatenate([[last_ts], t[:-1]])
                is_start = (t - prev) > self.burst_gap
            starts = t[is_start]
            if len(starts):
                last_start = self._burst_last_start.get(app)
                seq = (
                    starts
                    if last_start is None
                    else np.concatenate([[last_start], starts])
                )
                intervals = np.diff(seq)
                if len(intervals):
                    self._intervals.setdefault(app, []).append(intervals)
                self._burst_counts[app] = self._burst_counts.get(
                    app, 0
                ) + len(starts)
                self._burst_last_start[app] = float(starts[-1])
            self._burst_last_ts[app] = float(t[-1])

    def _observe_flows(
        self, apps: np.ndarray, conns: np.ndarray, ts: np.ndarray
    ) -> None:
        order = np.lexsort((conns, apps))
        s_apps = apps[order]
        s_conns = conns[order]
        s_ts = ts[order]
        group_starts = np.flatnonzero(
            np.concatenate(
                [
                    [True],
                    (s_apps[1:] != s_apps[:-1])
                    | (s_conns[1:] != s_conns[:-1]),
                ]
            )
        )
        bounds = np.append(group_starts, len(s_apps))
        for i, lo in enumerate(group_starts):
            app = int(s_apps[lo])
            key = (app << 32) | int(s_conns[lo])
            t = s_ts[lo : bounds[i + 1]]
            new_flows = int(np.count_nonzero(np.diff(t) > self.flow_gap))
            last = self._flow_last.get(key)
            if last is None or (t[0] - last) > self.flow_gap:
                new_flows += 1
            if new_flows:
                self._flow_counts[app] = (
                    self._flow_counts.get(app, 0) + new_flows
                )
            self._flow_last[key] = float(t[-1])


DEFAULT_GAPS = (DEFAULT_FLOW_GAP, DEFAULT_BURST_GAP)


def assert_same_state(got: CadenceTracker, want: CadenceTracker) -> None:
    mine, ref = got.payload(), want.payload()
    assert list(mine) == list(ref)
    for name, value in ref.items():
        assert mine[name].dtype == value.dtype, name
        assert mine[name].tobytes() == value.tobytes(), name
    summary, expected = got.summary(), want.summary()
    assert list(summary) == list(expected)
    for app, (n_flows, n_bursts, intervals) in expected.items():
        assert summary[app][:2] == (n_flows, n_bursts), app
        assert summary[app][2].dtype == intervals.dtype, app
        assert summary[app][2].tobytes() == intervals.tobytes(), app


def replay(
    chunks: Sequence[np.ndarray],
    gaps=DEFAULT_GAPS,
    round_trips: Container[int] = (),
) -> None:
    """Feed both trackers the chunks; compare after every one.

    Before each chunk index in ``round_trips`` the vectorised tracker
    is rebuilt from its own payload, as a resumed ingest rebuilds it.
    """
    tracker = CadenceTracker(*gaps)
    reference = LegacyCadenceTracker(*gaps)
    for i, chunk in enumerate(chunks):
        if i in round_trips:
            tracker = CadenceTracker.from_payload(tracker.payload(), *gaps)
        tracker.observe(PacketArray(chunk))
        reference.observe(PacketArray(chunk))
        assert_same_state(tracker, reference)


def split(data: np.ndarray, cuts: Sequence[int]) -> List[np.ndarray]:
    """``data`` cut at the (sorted, possibly repeated) row offsets."""
    bounds = [0, *sorted(cuts), len(data)]
    return [data[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


# ----------------------------------------------------------------------
# A generated study's users
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def users():
    """Each user's labelled packet table from a small generated study."""
    dataset = generate_study(StudyConfig(n_users=3, duration_days=2, seed=17))
    tables = [trace.packets.data for trace in dataset]
    assert all(
        np.isin(t["state"], BACKGROUND_STATE_VALUES).any() for t in tables
    )
    return tables


@pytest.mark.parametrize("chunk_size", [1, 7, 64, 8192])
def test_study_users_at_fixed_chunk_sizes(users, chunk_size):
    for data in users:
        cuts = range(chunk_size, len(data), chunk_size)
        tracker = CadenceTracker()
        reference = LegacyCadenceTracker()
        for chunk in split(data, cuts):
            tracker.observe(PacketArray(chunk))
            reference.observe(PacketArray(chunk))
        assert tracker.summary()
        assert_same_state(tracker, reference)


@pytest.mark.parametrize("seed", range(4))
def test_study_users_at_random_splits(users, seed):
    rng = np.random.default_rng(seed)
    for data in users:
        cuts = rng.integers(0, len(data) + 1, size=rng.integers(1, 40))
        chunks = split(data, cuts)
        round_trips = set(rng.integers(0, len(chunks), size=3).tolist())
        replay(chunks, round_trips=round_trips)


# ----------------------------------------------------------------------
# Generated chunk sequences on a 0.5 s grid
# ----------------------------------------------------------------------
GRID = 0.5

#: Steps between consecutive packets, in grid units: ties, the default
#: burst gap (60 units = 30 s) and flow gap (7,200 units = 3,600 s)
#: exactly, and either side of each.
STEPS = [0, 0, 1, 59, 60, 61, 7199, 7200, 7201, 20_000]

BACKGROUND = [
    int(ProcessState.PERCEPTIBLE),
    int(ProcessState.SERVICE),
    int(ProcessState.BACKGROUND),
]
NOT_BACKGROUND = [
    int(ProcessState.FOREGROUND),
    int(ProcessState.VISIBLE),
    int(ProcessState.NOT_RUNNING),
    255,
]

packet_rows = st.lists(
    st.tuples(
        st.sampled_from(STEPS),
        st.sampled_from([0, 1, 2, 300, 65_535]),
        st.sampled_from([0, 1, 2, 2**32 - 1]),
        st.sampled_from(BACKGROUND + NOT_BACKGROUND),
    ),
    min_size=1,
    max_size=120,
)


def build_packets(rows, origin: float) -> np.ndarray:
    data = np.zeros(len(rows), dtype=PACKET_DTYPE)
    steps = np.array([r[0] for r in rows], dtype=np.int64)
    data["timestamp"] = origin + np.cumsum(steps) * GRID
    data["app"] = [r[1] for r in rows]
    data["conn"] = [r[2] for r in rows]
    data["state"] = [r[3] for r in rows]
    return data


@settings(max_examples=300, deadline=None)
@given(
    rows=packet_rows,
    origin=st.sampled_from([0.0, 1_000.0, 1.6e9]),
    cut_fractions=st.lists(st.floats(0.0, 1.0), max_size=12),
    round_trip_fractions=st.lists(st.floats(0.0, 1.0), max_size=4),
    gaps=st.sampled_from([DEFAULT_GAPS, DEFAULT_GAPS, (0.0, 0.0), (1.0, 0.5)]),
)
def test_generated_chunk_sequences(
    rows, origin, cut_fractions, round_trip_fractions, gaps
):
    data = build_packets(rows, origin)
    cuts = [int(f * len(data)) for f in cut_fractions]
    chunks = split(data, cuts)
    round_trips = {int(f * len(chunks)) for f in round_trip_fractions}
    replay(chunks, gaps, round_trips)


@settings(max_examples=100, deadline=None)
@given(rows=packet_rows)
def test_one_packet_chunks(rows):
    data = build_packets(rows, 0.0)
    replay([data[i : i + 1] for i in range(len(data))])


def test_chunks_without_background_leave_state_alone():
    rows = [(60, 1, 0, BACKGROUND[0]), (60, 1, 0, NOT_BACKGROUND[0])]
    data = build_packets(rows, 0.0)
    tracker = CadenceTracker()
    tracker.observe(PacketArray(data[:1]))
    before = tracker.payload()
    tracker.observe(PacketArray(data[1:]))
    tracker.observe(PacketArray(data[:0]))
    after = tracker.payload()
    for name, value in before.items():
        assert after[name].tobytes() == value.tobytes(), name


def test_gap_of_exactly_the_threshold_continues():
    """Strict ``>``: a gap equal to the burst/flow gap opens nothing."""
    t = [0.0, DEFAULT_BURST_GAP, 2 * DEFAULT_BURST_GAP + 0.5]
    t.append(t[-1] + DEFAULT_FLOW_GAP)
    data = np.zeros(len(t), dtype=PACKET_DTYPE)
    data["timestamp"] = t
    data["app"] = 3
    data["conn"] = 2**32 - 1
    data["state"] = BACKGROUND[0]
    for chunks in (split(data, []), split(data, [1, 2, 3])):
        tracker = CadenceTracker()
        for chunk in chunks:
            tracker.observe(PacketArray(chunk))
        n_flows, n_bursts, intervals = tracker.summary()[3]
        assert n_flows == 1
        assert n_bursts == 3
        assert intervals.tolist() == [t[2] - t[0], t[3] - t[2]]
