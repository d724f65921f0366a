"""The persistent results store: keys, durability, single-flight,
pooled index connections, CLI."""

import multiprocessing
import os
import random
import sqlite3
import subprocess
import sys
import threading
from contextlib import closing, contextmanager
from pathlib import Path

import pytest

import repro
from repro import RunMetrics, StudyConfig, StudyEnergy, generate_study
from repro.cli import EXIT_STORE_MISS, main
from repro.core.readout import readout_from_checkpoint
from repro.errors import AnalysisError
from repro.radio import TailPolicy
from repro.radio.lte import LTE_DEFAULT
from repro.radio.umts import UMTS_DEFAULT
from repro.store import (
    ANALYSIS_NAMES,
    ResultStore,
    StoreKey,
    render_analysis,
    store_key_for,
)
from repro.store.index import StoreIndex
from repro.store.render import ANALYSIS_KINDS

SMALL = StudyConfig(n_users=2, duration_days=4.0, seed=11)


@pytest.fixture(scope="module")
def dataset():
    return generate_study(SMALL)


@pytest.fixture(scope="module")
def study(dataset):
    return StudyEnergy(dataset, lazy=True)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


# ----------------------------------------------------------------------
# Keys and ETags
# ----------------------------------------------------------------------
def test_key_digest_is_stable_and_distinct():
    key = StoreKey("abc", "RadioModel(...)", "last-packet", "fig1")
    assert key.digest() == StoreKey(
        "abc", "RadioModel(...)", "last-packet", "fig1"
    ).digest()
    others = [
        StoreKey("abd", "RadioModel(...)", "last-packet", "fig1"),
        StoreKey("abc", "RadioModel(. .)", "last-packet", "fig1"),
        StoreKey("abc", "RadioModel(...)", "fixed-tail", "fig1"),
        StoreKey("abc", "RadioModel(...)", "fig2", "fig1"),
        # Field-boundary confusion must not collide.
        StoreKey("abcRadioModel(...)", "", "last-packet", "fig1"),
    ]
    digests = {key.digest()} | {other.digest() for other in others}
    assert len(digests) == len(others) + 1
    assert key.etag() == f'"{key.digest()}"'


def test_store_key_for_study_reads_fingerprint_only(dataset):
    lazy = StudyEnergy(dataset, lazy=True)
    key = store_key_for(lazy, "fig3")
    assert key.fingerprint == dataset.fingerprint()
    assert key.analysis == "fig3"
    # Deriving the key must not have triggered attribution.
    assert lazy._results == {}


@pytest.mark.parametrize(
    "variant",
    [dict(model=UMTS_DEFAULT), dict(policy=TailPolicy.SPLIT_ADJACENT)],
    ids=["model", "policy"],
)
def test_store_key_separates_radio_models_and_tail_policies(
    store, dataset, variant
):
    metrics = RunMetrics()
    base = StudyEnergy(dataset, lazy=True, metrics=metrics)
    other = StudyEnergy(dataset, lazy=True, metrics=metrics, **variant)
    assert (base.model, base.policy) == (LTE_DEFAULT, TailPolicy.LAST_PACKET)
    base_key = store_key_for(base, "fig1")
    other_key = store_key_for(other, "fig1")
    assert other_key.fingerprint == base_key.fingerprint
    assert other_key.digest() != base_key.digest()
    assert other_key.etag() != base_key.etag()
    # An artefact stored for one is a miss for the other.
    store.put(base_key, b"lte / last-packet")
    assert store.get(other_key) is None
    # Deriving either key attributed nothing.
    assert base._results == {} and other._results == {}
    assert metrics.counter("attribution.users") == 0


def test_store_key_for_rejects_unknown_analysis(study):
    with pytest.raises(AnalysisError):
        store_key_for(study, "fig9")


def test_store_key_for_rejects_provenance_free_source():
    with pytest.raises(AnalysisError):
        store_key_for(object(), "fig1")


# ----------------------------------------------------------------------
# Store round trips and durability
# ----------------------------------------------------------------------
def test_put_get_roundtrip(store, study):
    key = store_key_for(study, "fig1")
    text = render_analysis("fig1", study)
    put = store.put(key, text.encode("utf-8"))
    assert put.fresh
    got = store.get(key)
    assert got is not None and not got.fresh
    assert got.text == text
    assert got.etag == key.etag()
    assert store.metrics.counter("store.hits") == 1


def test_warm_get_never_writes_the_index(store, study):
    """A hit is one SELECT plus one verified blob read: index.sqlite
    keeps its bytes and its mtime however often it is served."""
    key = store_key_for(study, "fig1")
    store.put(key, render_analysis("fig1", study).encode("utf-8"))
    index = store.directory / "index.sqlite"
    before = (index.read_bytes(), index.stat().st_mtime_ns)
    for _ in range(3):
        assert store.get(key) is not None
    assert (index.read_bytes(), index.stat().st_mtime_ns) == before
    assert store.metrics.counter("store.hits") == 3


def test_get_on_empty_store_is_a_miss(store, study):
    assert store.get(store_key_for(study, "fig1")) is None
    assert store.metrics.counter("store.misses") == 1


def test_corrupt_blob_falls_back_to_prev_then_misses(store, study):
    key = store_key_for(study, "fig1")
    data = b"generation one"
    store.put(key, data)
    store.put(key, b"generation two")  # rotates gen one to .prev
    path = store.blobs.path_for(key.digest(), "text")
    path.write_bytes(b"torn write")
    got = store.get(key)
    # Current file fails its checksum; .prev holds generation one,
    # whose checksum no longer matches the index row -> clean miss.
    assert got is None
    # A torn current file with a matching .prev generation serves it.
    store.put(key, data)
    store.put(key, data)  # .prev now holds the same verified bytes
    path.write_bytes(b"torn again")
    got = store.get(key)
    assert got is not None and got.data == data


def test_get_or_render_computes_once(store, study):
    key = store_key_for(study, "table1")
    calls = []

    def render():
        calls.append(1)
        return render_analysis("table1", study).encode("utf-8")

    first = store.get_or_render(key, render)
    second = store.get_or_render(key, render)
    assert len(calls) == 1
    assert first.fresh and not second.fresh
    assert first.data == second.data
    assert store.metrics.counter("store.puts") == 1


def test_single_flight_under_concurrency(store, study):
    """Parallel clients racing one cold key render exactly once."""
    key = store_key_for(study, "headlines")
    payload = render_analysis("headlines", study).encode("utf-8")
    calls = []
    barrier = threading.Barrier(4)
    results = []

    def client():
        def render():
            calls.append(1)
            return payload

        barrier.wait()
        results.append(store.get_or_render(key, render))

    threads = [threading.Thread(target=client) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert store.metrics.counter("store.puts") == 1
    assert len(results) == 4
    assert all(r.data == payload for r in results)


def test_render_failure_releases_the_lock(store, study):
    key = store_key_for(study, "fig2")

    def boom():
        raise RuntimeError("renderer died")

    with pytest.raises(RuntimeError):
        store.get_or_render(key, boom)
    # The lock must not leak: a follow-up render succeeds immediately.
    ok = store.get_or_render(key, lambda: b"recovered")
    assert ok.data == b"recovered"
    assert not list((store.directory / "locks").glob("*.lock"))


# ----------------------------------------------------------------------
# Pooled index connections
# ----------------------------------------------------------------------
def _run_in_subprocess(*args):
    """Run a Python command line in another process against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_pooled_read_sees_another_processs_invalidate(store, study):
    key = store_key_for(study, "fig1")
    store.put(key, b"fig1 bytes")
    assert store.get(key) is not None
    assert len(store.index._free) == 1  # the read's connection is pooled
    out = _run_in_subprocess(
        "-m", "repro.cli", "store", "--store", str(store.directory),
        "invalidate", "--analysis", "fig1",
    )
    assert "invalidated 1 entry" in out
    assert store.get(key) is None


def test_pooled_read_sees_another_processs_put(store):
    key = StoreKey("f" * 64, "model", "policy", "fig2")
    assert store.get(key) is None
    assert len(store.index._free) == 1
    _run_in_subprocess(
        "-c",
        "import sys; from repro.store import ResultStore, StoreKey; "
        "ResultStore(sys.argv[1]).put("
        "StoreKey('f' * 64, 'model', 'policy', 'fig2'), b'from elsewhere')",
        str(store.directory),
    )
    got = store.get(key)
    assert got is not None and got.data == b"from elsewhere"


def test_pooled_reads_leave_no_lock_behind(store):
    """A returned connection holds no SQLite lock: another process's
    writer takes the exclusive lock at once, without a busy wait."""
    key = StoreKey("e" * 64, "model", "policy", "fig3")
    store.put(key, b"x")
    assert store.get(key) is not None
    store.entries()
    path = store.directory / "index.sqlite"
    with closing(sqlite3.connect(path, timeout=0, isolation_level=None)) as conn:
        conn.execute("BEGIN EXCLUSIVE")
        conn.execute("DELETE FROM entries")
        conn.execute("COMMIT")
    assert store.get(key) is None


def test_threads_share_the_pool(store, monkeypatch):
    """Threads running mixed get/put/invalidate on one store never fail
    and only ever read the bytes that were put, and the free list never
    holds more connections than operations ran at once."""
    lent = {"now": 0, "peak": 0}
    opened = []
    counter = threading.Lock()
    pooled = StoreIndex._connection
    connect = sqlite3.connect

    @contextmanager
    def counted(self):
        with counter:
            lent["now"] += 1
            lent["peak"] = max(lent["peak"], lent["now"])
        try:
            with pooled(self) as conn:
                yield conn
        finally:
            with counter:
                lent["now"] -= 1

    def counted_connect(*args, **kwargs):
        opened.append(1)
        return connect(*args, **kwargs)

    monkeypatch.setattr(StoreIndex, "_connection", counted)
    monkeypatch.setattr(sqlite3, "connect", counted_connect)
    pooled_before = len(store.index._free)  # the schema's connection
    names = ("fig1", "fig2", "fig3", "headlines")
    keys = {name: StoreKey("d" * 64, "model", "policy", name) for name in names}
    payloads = {name: name.encode("utf-8") * 100 for name in names}
    barrier = threading.Barrier(8)
    errors = []
    wrong = []

    def client(seed):
        rng = random.Random(seed)
        barrier.wait()
        try:
            for _ in range(60):
                name = rng.choice(names)
                roll = rng.random()
                if roll < 0.6:
                    got = store.get(keys[name])
                    if got is not None and got.data != payloads[name]:
                        wrong.append(name)
                elif roll < 0.9:
                    store.put(keys[name], payloads[name])
                else:
                    store.invalidate(analysis=name)
        except Exception as exc:  # noqa: BLE001 (reported below)
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == [] and wrong == []
    assert store.metrics.counter("store.hits") > 0
    assert len(store.index._free) == pooled_before + len(opened)
    assert len(store.index._free) <= lent["peak"] <= 8


def test_a_connection_whose_operation_raised_is_not_lent_again(store):
    key = StoreKey("c" * 64, "model", "policy", "fig1")
    assert store.get(key) is None
    (conn,) = store.index._free
    with pytest.raises(sqlite3.IntegrityError):
        store.index.put(key, None, "text", "checksum", 1)  # etag NOT NULL
    assert store.index._free == []
    with pytest.raises(sqlite3.ProgrammingError):
        conn.execute("SELECT 1")  # closed
    store.put(key, b"after the failure")
    assert store.get(key).data == b"after the failure"
    assert len(store.index._free) == 1 and store.index._free[0] is not conn


def _read_in_child(store, key, pipe):
    found = store.get(key)
    store.put(StoreKey("b" * 64, "model", "policy", "fig2"), b"from the child")
    pipe.send((found.data, [id(conn) for conn in store.index._free]))


def test_a_forked_child_opens_its_own_connection(store):
    """A fork-context child neither lends nor closes the connections it
    inherited; the parent's pooled connection works after it exits."""
    key = StoreKey("a" * 64, "model", "policy", "fig1")
    store.put(key, b"from the parent")
    assert store.get(key) is not None
    inherited = [id(conn) for conn in store.index._free]
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_read_in_child, args=(store, key, send))
    child.start()
    data, child_pool = receive.recv()
    child.join(timeout=30)
    assert child.exitcode == 0
    assert data == b"from the parent"
    assert len(child_pool) == 1 and not set(child_pool) & set(inherited)
    assert [id(conn) for conn in store.index._free] == inherited
    assert store.get(key).data == b"from the parent"
    got = store.get(StoreKey("b" * 64, "model", "policy", "fig2"))
    assert got is not None and got.data == b"from the child"


# ----------------------------------------------------------------------
# Maintenance: ls / invalidate / gc
# ----------------------------------------------------------------------
def _fill(store, study, names=("fig1", "fig3", "headlines")):
    for name in names:
        store.get_or_render(
            store_key_for(study, name),
            lambda n=name: render_analysis(n, study).encode("utf-8"),
            kind=ANALYSIS_KINDS[name],
        )


def test_invalidate_by_fingerprint_prefix(store, study, dataset):
    _fill(store, study)
    fingerprint = dataset.fingerprint()
    removed, files = store.invalidate(fingerprint=fingerprint[:10])
    assert removed == 3
    assert files >= 3
    assert store.entries() == []
    assert store.get(store_key_for(study, "fig1")) is None


def test_invalidate_by_analysis(store, study):
    _fill(store, study)
    removed, _ = store.invalidate(analysis="fig3")
    assert removed == 1
    left = {e.analysis for e in store.entries()}
    assert left == {"fig1", "headlines"}


def test_invalidate_racing_a_put_leaves_the_put_served(store, study, monkeypatch):
    """Regression: an ``invalidate`` landing between a ``put``'s blob
    write and its first rename used to unlink the writer's temp file,
    so the ``put`` died with ``FileNotFoundError`` (a traceback out of
    a cold GET under ``repro serve``). Each writer now owns its temp
    file: the ``put`` completes and its key is served."""
    import os

    key = store_key_for(study, "fig1")
    store.put(key, b"generation one")
    real_replace = os.replace
    raced = []

    def replace_after_invalidate(src, dst):
        if not raced:
            raced.append(store.invalidate(analysis="fig1"))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_invalidate)
    store.put(key, b"generation two")
    monkeypatch.undo()
    assert raced == [(1, 1)]  # the row and the current blob, no temp file
    got = store.get(key)
    assert got is not None and got.data == b"generation two"


def test_invalidate_requires_a_selector(store):
    with pytest.raises(ValueError):
        store.invalidate()


def test_gc_reclaims_orphans_and_dead_rows(store, study):
    _fill(store, study)
    # Orphan blob: a file no index row references.
    (store.blobs.directory / "deadbeef.txt").write_bytes(b"orphan")
    # Dead row: delete one entry's blob files outright.
    victim = store.entries()[0]
    store.blobs.delete(victim.digest, victim.kind)
    rows, files = store.gc()
    assert rows == 1
    assert files == 1
    assert len(store.entries()) == 2


def test_gc_reclaims_prev_rotations_and_stale_locks(store, study):
    """Regression: gc also removes a live entry's mismatched ``.prev``
    rotation, stale ``.tmp`` spills and compute locks past the
    single-flight timeout — while sparing everything still useful."""
    import os
    import time

    from repro.durable import LOCK_TIMEOUT_S

    mismatched = store_key_for(study, "fig1")
    store.put(mismatched, b"generation one")
    store.put(mismatched, b"generation two")  # .prev no longer matches
    matching = store_key_for(study, "fig3")
    store.put(matching, b"same bytes")
    store.put(matching, b"same bytes")  # .prev matches the row

    blobs = store.blobs.directory
    bad_prev = blobs / (
        store.blobs.path_for(mismatched.digest(), "text").name + ".prev"
    )
    good_prev = blobs / (
        store.blobs.path_for(matching.digest(), "text").name + ".prev"
    )
    assert bad_prev.exists() and good_prev.exists()

    old = time.time() - LOCK_TIMEOUT_S - 10.0
    stale_tmp = blobs / "feedface.txt.tmp"
    stale_tmp.write_bytes(b"abandoned spill")
    os.utime(stale_tmp, (old, old))
    young_tmp = blobs / "cafebabe.txt.tmp"
    young_tmp.write_bytes(b"in-flight publish")

    locks = store.directory / "locks"
    locks.mkdir(exist_ok=True)
    stale_lock = locks / "feedface.lock"
    stale_lock.write_bytes(b"")
    os.utime(stale_lock, (old, old))
    fresh_lock = locks / "cafebabe.lock"
    fresh_lock.write_bytes(b"")

    rows, files = store.gc()
    assert rows == 0
    assert files == 3  # bad .prev + stale .tmp + stale lock
    assert not bad_prev.exists()
    assert not stale_tmp.exists()
    assert not stale_lock.exists()
    assert good_prev.exists()
    assert young_tmp.exists()  # may be an in-flight publish
    assert fresh_lock.exists()  # its holder may still be rendering
    # Both entries still serve after the sweep.
    assert store.get(mismatched).data == b"generation two"
    assert store.get(matching).data == b"same bytes"


# ----------------------------------------------------------------------
# Fingerprint invalidation end to end (append_user regression)
# ----------------------------------------------------------------------
def test_append_user_invalidates_store_keys(tmp_path):
    """Mutating the dataset reroutes every store key; the old entries
    are orphaned and removable by the old fingerprint."""
    dataset = generate_study(StudyConfig(n_users=2, duration_days=3.0, seed=5))
    donor = generate_study(StudyConfig(n_users=3, duration_days=3.0, seed=6))
    store = ResultStore(tmp_path / "store")

    old_fingerprint = dataset.fingerprint()
    study = StudyEnergy(dataset, lazy=True)
    old_key = store_key_for(study, "fig1")
    store.put(old_key, b"stale fig1")

    dataset.append_user(donor.users[-1])
    assert dataset.fingerprint() != old_fingerprint

    new_key = store_key_for(StudyEnergy(dataset, lazy=True), "fig1")
    assert new_key.digest() != old_key.digest()
    # The mutated dataset can never be served the stale artefact ...
    assert store.get(new_key) is None
    # ... and the orphaned entry is reclaimable by the old fingerprint.
    removed, _ = store.invalidate(fingerprint=old_fingerprint)
    assert removed == 1
    assert store.entries() == []


# ----------------------------------------------------------------------
# Checkpoint provenance
# ----------------------------------------------------------------------
def test_checkpoint_readout_carries_provenance(tmp_path):
    study_file = str(tmp_path / "study.npz")
    ck = str(tmp_path / "ck.npz")
    argv = ["--users", "2", "--days", "4", "--seed", "11"]
    assert main(["generate", *argv, "--out", study_file]) == 0
    assert main(["ingest", "--dataset", study_file, "--checkpoint", ck]) == 0
    readout = readout_from_checkpoint(ck)
    assert readout.provenance is not None
    key = store_key_for(readout, "fig1")
    assert key.fingerprint == readout.provenance.fingerprint
    assert key.policy == "last-packet"


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


CLI_SMALL = ["--users", "2", "--days", "4", "--seed", "11"]


@pytest.fixture(scope="module")
def saved_study(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("store_cli") / "study.npz")
    assert main(["generate", *CLI_SMALL, "--out", out]) == 0
    return out


def test_cli_figure_store_is_byte_identical(saved_study, tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    capsys.readouterr()
    code, direct = run(capsys, "figure", "3", "--dataset", saved_study)
    assert code == 0
    code, cold = run(
        capsys, "figure", "3", "--dataset", saved_study, "--store", store_dir
    )
    assert code == 0
    code, warm = run(
        capsys, "figure", "3", "--dataset", saved_study, "--store", store_dir
    )
    assert code == 0
    assert cold == direct
    assert warm == direct


def test_cli_store_only_miss_exits_4(saved_study, tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    code = main(
        [
            "figure",
            "1",
            "--dataset",
            saved_study,
            "--store",
            store_dir,
            "--store-only",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_STORE_MISS == 4
    assert captured.out == ""
    assert "no cached fig1" in captured.err


def test_cli_store_only_serves_after_warmup(saved_study, tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    capsys.readouterr()
    code, warm = run(
        capsys, "table", "1", "--dataset", saved_study, "--store", store_dir
    )
    assert code == 0
    code, cached = run(
        capsys,
        "table",
        "1",
        "--dataset",
        saved_study,
        "--store",
        store_dir,
        "--store-only",
    )
    assert code == 0
    assert cached == warm


def test_cli_store_ls_gc_invalidate(saved_study, tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    capsys.readouterr()
    for analysis in ("1", "3"):
        assert (
            main(
                [
                    "figure",
                    analysis,
                    "--dataset",
                    saved_study,
                    "--store",
                    store_dir,
                ]
            )
            == 0
        )
    capsys.readouterr()
    # Older versions counted hits in the index; such rows must still
    # list, serve and gc.
    with closing(sqlite3.connect(tmp_path / "store" / "index.sqlite")) as conn, conn:
        conn.execute("UPDATE entries SET hits = hits + 7")
    code, out = run(capsys, "store", "--store", store_dir, "ls")
    assert code == 0
    assert out.splitlines()[1].split() == [
        "analysis",
        "study",
        "policy",
        "bytes",
        "etag",
    ]
    assert "fig1" in out and "fig3" in out and "2 entries" in out
    code, direct = run(capsys, "figure", "3", "--dataset", saved_study)
    assert code == 0
    code, cached = run(
        capsys,
        "figure",
        "3",
        "--dataset",
        saved_study,
        "--store",
        store_dir,
        "--store-only",
    )
    assert code == 0 and cached == direct
    code, out = run(
        capsys, "store", "--store", store_dir, "invalidate", "--analysis", "fig1"
    )
    assert code == 0
    assert "invalidated 1 entry" in out
    code, out = run(capsys, "store", "--store", store_dir, "gc")
    assert code == 0
    assert "removed 0" in out
    code = main(["store", "--store", store_dir, "invalidate"])
    captured = capsys.readouterr()
    assert code == 2
    assert "needs --fingerprint" in captured.err


def test_all_analyses_render_for_any_totals_readout(study):
    for name in ANALYSIS_NAMES:
        text = render_analysis(name, study)
        assert isinstance(text, str) and text
