"""A window ring folds each (window, bucket) once.

:meth:`repro.follow.WindowRing.fold` keeps a window's fold until a
bucket in its range changes. A follower asks for every sealed window
again as a later window's prior and to digest and publish it; those
asks must not refold, and what they return must equal a fresh fold
of the buckets as they are.
"""

import numpy as np
import pytest

from repro import StudyConfig, generate_study
from repro.follow import Follower, TailCsvSource, WindowRing, WindowSpec
from repro.store import ResultStore
from repro.trace.io_text import write_events_csv, write_packets_csv


@pytest.fixture
def fold_calls(monkeypatch):
    """``(window name, high bucket)`` of every fold actually computed."""
    calls = []
    fold = WindowRing._fold

    def counting(ring, high_bucket):
        calls.append((ring.spec.name, high_bucket))
        return fold(ring, high_bucket)

    monkeypatch.setattr(WindowRing, "_fold", counting)
    return calls


def test_follow_folds_each_window_once(tmp_path, monkeypatch, fold_calls):
    """A 3-user x 3-day CSV-tail follow publishing to a store: one fold
    per distinct (window, bucket), however often each is asked for."""
    dataset = generate_study(
        StudyConfig(n_users=3, duration_days=3.0, seed=23)
    )
    pairs = []
    for user in dataset.users:
        packets = tmp_path / f"u{user.user_id}.csv"
        events = tmp_path / f"u{user.user_id}.events.csv"
        write_packets_csv(packets, user.packets, dataset.registry)
        write_events_csv(events, user.events, dataset.registry)
        pairs.append((packets, events))
    asked = []
    ring_fold = WindowRing.fold

    def asking(ring, high_bucket):
        asked.append((ring.spec.name, high_bucket))
        return ring_fold(ring, high_bucket)

    monkeypatch.setattr(WindowRing, "fold", asking)
    follower = Follower(
        TailCsvSource(pairs),
        checkpoint_path=tmp_path / "follow.npz",
        windows=(WindowSpec("short", 14400, 3600),),
        store=ResultStore(tmp_path / "store"),
        poll_interval=0.0,
        emit=lambda line: None,
    )
    assert follower.run(idle_exit=2) == "idle"
    assert fold_calls and len(fold_calls) == len(set(fold_calls))
    assert set(fold_calls) == set(asked)
    assert len(asked) > len(fold_calls)  # asks after the first are kept


def _packets(rng, n, t_lo, t_hi):
    return (
        np.sort(rng.uniform(t_lo, t_hi, n)),
        rng.integers(1, 6, n).astype(np.int64),
        rng.integers(0, 4, n).astype(np.int64),
        rng.integers(40, 1500, n).astype(np.int64),
        rng.uniform(0.0, 2.0, n),
    )


def _same_fold(got, want):
    assert list(got) == list(want)
    for uid in got:
        for a, b in zip(got[uid], want[uid]):
            assert list(a.items()) == list(b.items())


@pytest.mark.parametrize("seed", range(6))
def test_kept_folds_equal_fresh_folds(seed):
    """Random ingests (also into buckets already folded), folds and
    evictions: every fold equals a fresh fold of the ring as it is."""
    rng = np.random.default_rng(900 + seed)
    bucket, n_buckets = 5, int(rng.integers(2, 5))
    ring = WindowRing(WindowSpec("w", bucket * n_buckets, bucket))
    for _ in range(60):
        action = rng.random()
        if action < 0.5:
            t_lo = float(rng.uniform(0.0, 40 * bucket))
            t_hi = t_lo + float(rng.uniform(0.1, 3 * bucket))
            uid = int(rng.integers(1, 4))
            n = int(rng.integers(1, 30))
            ring.ingest(uid, *_packets(rng, n, t_lo, t_hi))
        elif action < 0.9:
            high = int(rng.integers(-2, 45))
            _same_fold(ring.fold(high), ring._fold(high))
        else:
            ring.evict_through(int(rng.integers(0, 40)))
    for high in range(-2, 45):
        _same_fold(ring.fold(high), ring._fold(high))


def test_ingest_and_eviction_drop_only_the_windows_they_touch(fold_calls):
    ring = WindowRing(WindowSpec("w", 30, 10))
    rng = np.random.default_rng(5)
    ring.ingest(1, *_packets(rng, 50, 0.0, 100.0))
    for high in range(10):
        ring.fold(high)
    assert len(fold_calls) == 10
    # A packet in bucket 6 changes the windows ending at 6, 7 and 8.
    ring.ingest(2, *_packets(rng, 1, 61.0, 62.0))
    for high in range(10):
        ring.fold(high)
    assert fold_calls[10:] == [("w", 6), ("w", 7), ("w", 8)]
    # Evicting through bucket 3 drops the windows reaching down to it.
    ring.evict_through(3)
    for high in range(10):
        ring.fold(high)
    assert fold_calls[13:] == [("w", h) for h in range(6)]


def test_callers_get_copies(fold_calls):
    ring = WindowRing(WindowSpec("w", 20, 10))
    ring.ingest(1, *_packets(np.random.default_rng(1), 20, 0.0, 20.0))
    first = ring.fold(1)
    for part in first[1]:
        part.clear()
    again = ring.fold(1)
    assert all(again[1]) and len(fold_calls) == 1
