"""The durable-artefact protocol (``repro.durable``) on its own.

Callers' suites cover the common paths — checkpoint fallback in
``test_stream.py``, blob rotation and single-flight renders in
``test_store.py``, torn writes in the chaos suite. This file pins what
none of them reaches: concurrent writers of one path, a rotation whose
current file vanished, both generations bad, an abandoned lock, and a
waiter woken by a release in its own process.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import durable, faults
from repro.durable import (
    LOCK_TIMEOUT_S,
    TMP_SUFFIX,
    checksum_file,
    content_checksum,
    previous_path,
    read_verified,
    single_flight,
    write_atomic,
)
from repro.faults import FaultPlan, FaultSpec


def test_threads_writing_one_path_all_succeed(tmp_path):
    """Writers of one path (more of them than cores, switching often)
    all succeed — none renames or rotates a file another one moved —
    and leave one complete payload per generation."""
    path = tmp_path / "artefact.bin"
    payloads = [bytes([i]) * 200_000 for i in range(4)]
    barrier = threading.Barrier(len(payloads))
    errors = []

    def writer(data):
        barrier.wait()
        try:
            for _ in range(20):
                write_atomic(path, data, keep_prev=True)
        except Exception as exc:  # collected; asserted empty below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert path.read_bytes() in payloads
    assert previous_path(path).read_bytes() in payloads
    assert not list(tmp_path.glob("*" + TMP_SUFFIX))


def test_rotation_succeeds_when_the_current_file_vanished(tmp_path):
    path = tmp_path / "blob.txt"
    write_atomic(path, b"one", keep_prev=True)

    def writer(handle):
        path.unlink()  # a concurrent delete lands mid-write
        handle.write(b"two")

    assert write_atomic(path, writer, keep_prev=True) == path
    assert path.read_bytes() == b"two"
    assert not previous_path(path).exists()


def test_failed_write_keeps_the_current_file_and_no_temp(tmp_path):
    path = tmp_path / "entry.npz"
    write_atomic(path, b"good")

    def broken(handle):
        handle.write(b"partial")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        write_atomic(path, broken, keep_prev=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.npz"]
    assert path.read_bytes() == b"good"


def test_fault_site_fires_on_the_complete_temp_file(tmp_path):
    path = tmp_path / "plan.json"
    plan = FaultPlan([FaultSpec("shard.manifest", "torn", hit=1, arg=0.5)])
    with faults.installed(plan):
        write_atomic(path, b"0123456789", site="shard.manifest")
    assert path.read_bytes() == b"01234"


def test_npz_through_a_handle_matches_npz_to_a_path(tmp_path):
    arrays = {"a": np.arange(5.0), "b": np.array([3, 1], dtype=np.int64)}
    for save in (np.savez, np.savez_compressed):
        save(tmp_path / "direct.npz", **arrays)
        write_atomic(
            tmp_path / "atomic.npz", lambda handle: save(handle, **arrays)
        )
        direct = (tmp_path / "direct.npz").read_bytes()
        assert (tmp_path / "atomic.npz").read_bytes() == direct


def _parse_good(path):
    data = path.read_bytes()
    if data != b"good":
        raise ValueError(f"{path.name} is bad")
    return data


def test_read_verified_prefers_current_then_prev(tmp_path):
    path = tmp_path / "ck"
    previous_path(path).write_bytes(b"good")
    path.write_bytes(b"torn")
    assert read_verified(path, _parse_good) == (b"good", True)
    path.unlink()  # a crash between the two renames
    assert read_verified(path, _parse_good) == (b"good", True)
    path.write_bytes(b"good")
    assert read_verified(path, _parse_good) == (b"good", False)


def test_read_verified_raises_the_current_files_error(tmp_path):
    path = tmp_path / "ck"
    path.write_bytes(b"torn")
    with pytest.raises(ValueError, match=r"^ck is bad$"):
        read_verified(path, _parse_good)  # no .prev at all
    previous_path(path).write_bytes(b"also torn")
    with pytest.raises(ValueError, match=r"^ck is bad$"):
        read_verified(path, _parse_good)


def test_read_verified_never_hides_a_parser_bug(tmp_path):
    path = tmp_path / "ck"
    previous_path(path).write_bytes(b"good")

    def buggy(candidate):
        raise TypeError("parser bug")

    with pytest.raises(TypeError, match="parser bug"):
        read_verified(path, buggy)


def test_checksum_file_streams_to_the_content_checksum(tmp_path):
    data = bytes(range(256)) * 40
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert checksum_file(path, chunk_size=7) == content_checksum(data)


def test_single_flight_breaks_a_lock_older_than_the_timeout(tmp_path):
    lock = tmp_path / "key.lock"
    lock.write_bytes(b"")
    old = time.time() - LOCK_TIMEOUT_S - 10.0
    os.utime(lock, (old, old))
    waits = []
    result = single_flight(
        lock, lambda: "ran", lambda: None, on_wait=lambda: waits.append(1)
    )
    assert result == "ran"
    assert waits == [1]
    assert not lock.exists()


def test_single_flight_waiter_serves_the_winners_result(tmp_path):
    lock = tmp_path / "key.lock"
    lock.write_bytes(b"")  # a live winner holds the lock
    published = []

    def winner_publishes():
        time.sleep(0.1)
        published.append("result")
        lock.unlink()

    def must_not_run():
        raise AssertionError("the loser ran the work too")

    thread = threading.Thread(target=winner_publishes)
    thread.start()
    result = single_flight(
        lock, must_not_run, lambda: published[0] if published else None
    )
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert result == "result"


def test_single_flight_releases_the_lock_when_run_fails(tmp_path):
    lock = tmp_path / "key.lock"

    def boom():
        raise RuntimeError("renderer died")

    with pytest.raises(RuntimeError):
        single_flight(lock, boom, lambda: None)
    assert not lock.exists()


def _park_behind(lock, winner_run, loser_run, ready):
    """Run ``winner_run`` as the single-flight winner in a thread, and
    once it holds ``lock`` run a loser here; returns the loser's result
    and how long the loser took."""
    holding = threading.Event()
    outcome = []

    def winner():
        def run():
            holding.set()
            return winner_run()

        try:
            outcome.append(single_flight(lock, run, ready))
        except RuntimeError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=winner)
    thread.start()
    assert holding.wait(timeout=10)
    started = time.perf_counter()
    result = single_flight(lock, loser_run, ready)
    took = time.perf_counter() - started
    thread.join(timeout=10)
    assert not thread.is_alive()
    return result, took, outcome


def test_single_flight_release_wakes_a_waiter_in_this_process(
    tmp_path, monkeypatch
):
    """A winner's release wakes its process's waiters at once: with the
    poll interval at 30 s, the waiter still returns the winner's result
    right after the winner's 0.1 s run."""
    monkeypatch.setattr(durable, "POLL_INTERVAL_S", 30.0)
    published = []

    def winner_run():
        time.sleep(0.1)
        published.append("result")
        return "result"

    def must_not_run():
        raise AssertionError("the loser ran the work too")

    result, took, outcome = _park_behind(
        tmp_path / "key.lock",
        winner_run,
        must_not_run,
        lambda: published[0] if published else None,
    )
    assert result == "result"
    assert outcome == ["result"]
    assert took < 5.0


def test_single_flight_waiter_reruns_promptly_after_a_failed_winner(
    tmp_path, monkeypatch
):
    """A winner that raises still wakes its waiters; one re-elects and
    runs without waiting out a poll tick."""
    monkeypatch.setattr(durable, "POLL_INTERVAL_S", 30.0)
    lock = tmp_path / "key.lock"

    def winner_run():
        time.sleep(0.1)
        raise RuntimeError("renderer died")

    result, took, outcome = _park_behind(
        lock, winner_run, lambda: "rerun", lambda: None
    )
    assert result == "rerun"
    assert isinstance(outcome[0], RuntimeError)
    assert took < 5.0
    assert not lock.exists()
