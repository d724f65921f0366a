"""The §4.1 episode folds equal the per-episode walk they replaced.

:func:`~repro.core.transitions.bytes_since_foreground` (Fig 6) and
:func:`~repro.core.transitions.first_minute_fractions` fold each
(user, app)'s background episodes as arrays. ``transitions_reference``
keeps the old walk, one episode at a time; the folds must agree
exactly: bins by ``tobytes()``, fractions as dicts in key order. The
random studies below hold episodes with no packets, episodes still open
at ``t_end``, packets at an episode's start, first-minute edge and
horizon, apps with packets but no episode, and zero-byte packets.
"""

import numpy as np
import pytest

import transitions_reference as reference
from repro.core.transitions import bytes_since_foreground, first_minute_fractions
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppInfo, AppRegistry, Dataset
from repro.trace.events import EventLog, ProcessState, ProcessStateEvent
from repro.trace.trace import UserTrace

T_END = 3000.0
N_APPS = 8
SEEDS = range(12)


def random_study(seed):
    """A few users whose apps switch between random process states at
    5-second steps and send packets at 2.5-second steps (so packets
    land exactly on episode starts and on start + 60 s)."""
    rng = np.random.default_rng(seed)
    registry = AppRegistry(
        [AppInfo(app, f"app.{app}", "x") for app in range(1, N_APPS + 1)]
    )
    users = []
    for uid in range(1, int(rng.integers(1, 5)) + 1):
        events, columns = [], []
        for app in range(1, N_APPS + 1):
            if rng.random() < 0.8:
                # Events past T_END too: they end no episode.
                times = rng.choice(np.arange(0.0, T_END + 300.0, 5.0), rng.integers(0, 15))
                events += [
                    ProcessStateEvent(float(t), app, ProcessState(int(rng.integers(0, 6))))
                    for t in np.sort(times)
                ]
            if rng.random() < 0.85:
                n = int(rng.integers(0, 120))
                sizes = rng.integers(1, 1 << 32, n, dtype=np.uint64)
                sizes[rng.random(n) < 0.1] = 0
                columns.append(
                    (rng.choice(np.arange(0.0, T_END, 2.5), n), sizes, np.full(n, app))
                )
        times, sizes, apps = (np.concatenate(c) for c in zip(*columns)) if columns else (
            np.empty(0), np.empty(0), np.empty(0)
        )
        order = np.argsort(times, kind="stable")
        packets = PacketArray.from_columns(
            times[order], sizes[order], np.zeros(len(order)), apps[order]
        )
        trace = UserTrace(uid, 0.0, T_END, packets, EventLog(events))
        trace.label_states()
        users.append(trace)
    return Dataset(registry, users)


@pytest.fixture(scope="module")
def studies():
    return [random_study(seed) for seed in SEEDS]


def test_random_studies_hold_every_edge_case(studies):
    seen = set()
    for dataset in studies:
        for trace in dataset:
            index = trace.index()
            for app in range(1, N_APPS + 1):
                ts = trace.packets.timestamps[index.app_indices(app)]
                episodes = index.background_episodes(app)
                if len(ts) and not episodes:
                    seen.add("packets, no episode")
                for episode in episodes:
                    inside = ts[(ts >= episode.start) & (ts < episode.end)]
                    seen.add("empty episode" if not len(inside) else "episode with packets")
                    if episode.end == T_END:
                        seen.add("open at t_end")
                    if episode.start in ts:
                        seen.add("packet at start")
                    if episode.start + 60.0 in inside:
                        seen.add("packet at start + 60")
                    if episode.start + 100.0 in inside:
                        seen.add("packet at the 100 s horizon")
    assert seen == {
        "packets, no episode", "empty episode", "episode with packets",
        "open at t_end", "packet at start", "packet at start + 60",
        "packet at the 100 s horizon",
    }


@pytest.mark.parametrize(
    "bin_seconds, horizon",
    [(10.0, 7200.0), (7.0, 100.0), (2.5, 100.0), (60.0, 45.0), (10.0, 0.0)],
)
def test_bytes_since_foreground_equals_the_episode_walk(studies, bin_seconds, horizon):
    for dataset in studies:
        got = bytes_since_foreground(dataset, bin_seconds, horizon)
        want = reference.bytes_since_foreground(dataset, bin_seconds, horizon)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_bytes_since_foreground_with_an_apps_filter(studies):
    rng = np.random.default_rng(0)
    for dataset in studies:
        for _ in range(3):
            chosen = rng.choice(N_APPS, int(rng.integers(0, N_APPS + 1)), replace=False)
            apps = [f"app.{app + 1}" for app in chosen]
            got = bytes_since_foreground(dataset, apps=apps)
            want = reference.bytes_since_foreground(dataset, apps=apps)
            assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("window", [60.0, 0.0, 12.5, 1e9])
def test_first_minute_fractions_equal_the_episode_walk(studies, window):
    for dataset in studies:
        got = first_minute_fractions(dataset, window)
        want = reference.first_minute_fractions(dataset, window)
        assert list(got.items()) == list(want.items())


def test_folds_on_a_generated_study(small_dataset):
    got = bytes_since_foreground(small_dataset)
    want = reference.bytes_since_foreground(small_dataset)
    assert got[1].tobytes() == want[1].tobytes()
    assert want[1].any()
    got = first_minute_fractions(small_dataset)
    assert list(got.items()) == list(
        reference.first_minute_fractions(small_dataset).items()
    )
    assert got
