"""Chaos suite: seeded fault plans against the streaming pipeline.

Every test arms a deterministic :class:`~repro.faults.FaultPlan` —
worker crashes, task hangs, corrupted CSV rows, torn checkpoint writes
— and runs a real ingestion through it. Worker crashes and hangs strike
the shard pool, the one process boundary an ingest crosses: the crash,
hang and random plans run a sharded plan over two shard workers and
check which of their faults struck. The contract under test: each plan
must end either in a structured failure
(:class:`~repro.errors.StreamError` or
:class:`~repro.errors.ShardError`) with on-disk state intact enough to
recover from, or in a completed run — and in *both* cases the final
grouped totals must be ``array_equal`` to the fault-free batch
reference. Faults may cost retries, rebuilds and resumes; they may
never cost correctness.

Seeds are fixed so ``scripts/check_tier1.sh --chaos`` replays the
exact same fault schedule every time.
"""

from __future__ import annotations

import random

import pytest

from repro import StudyConfig, StudyEnergy, generate_study
from repro.errors import (
    FaultInjected,
    ShardError,
    ShardIncomplete,
    StreamError,
)
from repro.faults import FaultPlan, FaultSpec
from repro import faults
from repro.follow import Follower, TailCsvSource, WindowSpec
from repro.metrics import RunMetrics
from repro.shard import (
    ShardManifest,
    merge_shard_checkpoints,
    merged_readout,
    run_all_shards,
    run_shard,
    shard_checkpoint_path,
)
from repro.stream import CsvStreamSource, NpzStreamSource, StreamIngestor
from repro.trace.io_text import (
    dataset_from_csv,
    write_events_csv,
    write_packets_csv,
)

from test_stream import assert_streams_equal_batch

# Fixed seed partitions — 36 plans total, ≥20 required by the issue.
CRASH_SEEDS = [0, 4, 8, 12, 16, 20]
HANG_SEEDS = [1, 5, 9, 13, 17, 21]
CORRUPT_SEEDS = [2, 6, 10, 14, 18, 22]
TORN_SEEDS = [3, 7, 11, 15, 19, 23]
RANDOM_SEEDS = [100, 101, 102, 103, 104, 105]
TRANSPORT_DROP_SEEDS = [400, 401]
TRANSPORT_CORRUPT_SEEDS = [410, 411]
TRANSPORT_HANG_SEEDS = [420]
TRANSPORT_RAISE_SEEDS = [430]

CHUNK = 2048


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def npz_study(tmp_path_factory):
    """A 3-user study on disk (~42k packets) plus its batch reference."""
    dataset = generate_study(
        StudyConfig(n_users=3, duration_days=3.0, seed=17)
    )
    path = tmp_path_factory.mktemp("chaos") / "study.npz"
    dataset.save(path)
    return path, StudyEnergy(dataset)


@pytest.fixture(scope="module")
def csv_study(tmp_path_factory):
    """Per-user CSV pairs (~20k rows) plus the batch-from-CSV reference."""
    dataset = generate_study(
        StudyConfig(n_users=2, duration_days=2.0, seed=23)
    )
    root = tmp_path_factory.mktemp("chaos_csv")
    pairs = []
    for trace in dataset:
        p = root / f"u{trace.user_id}_packets.csv"
        e = root / f"u{trace.user_id}_events.csv"
        write_packets_csv(p, trace.packets, dataset.registry)
        write_events_csv(e, trace.events, dataset.registry)
        pairs.append((p, e))
    return pairs, StudyEnergy(dataset_from_csv(pairs))


class RecordingPlan(FaultPlan):
    """A plan that appends every spec it strikes to ``log``.

    Fault counters are per process, so a strike inside a shard worker
    is invisible to the test process. ``fork`` shard workers inherit
    this armed plan object, and each strike is written (and closed)
    before the spec acts, so the record survives a crash too.
    """

    def __init__(self, plan, log):
        super().__init__(plan.specs, seed=plan.seed)
        self.log = str(log)

    def match(self, site, n):
        spec = super().match(site, n)
        if spec is not None:
            with open(self.log, "a") as handle:
                handle.write(f"{spec.site}:{spec.action}:{spec.hit}\n")
        return spec


def run_shards_with_recovery(
    plan, path, tmp_path, shards, metrics=None, **pool
):
    """The chaos harness: armed run, then the documented recovery path.

    ``shards`` is a shard count or an explicit partition of the study's
    users. Phase 1 runs that plan over two shard workers under the
    fault plan and is allowed exactly two outcomes — completion, or a
    typed ``ShardError`` naming the shards that crashed, hung or failed
    (anything else, a hang included, fails the test). Phase 2 reruns
    the plan disarmed: complete shards are skipped and the rest resume
    from their checkpoints. Returns the merged readout and the set of
    ``site:action:hit`` specs that struck in phase 1.
    """
    source = NpzStreamSource(path, chunk_size=CHUNK)
    if isinstance(shards, int):
        manifest = ShardManifest.plan(source, shards)
    else:
        manifest = ShardManifest.plan(source, len(shards), shards=shards)
    shard_dir = tmp_path / "shards"
    log = tmp_path / "struck.log"
    with faults.installed(RecordingPlan(plan, log)):
        try:
            run_all_shards(
                manifest, shard_dir, shard_workers=2, metrics=metrics, **pool
            )
        except ShardError:
            pass
    run_all_shards(manifest, shard_dir, shard_workers=2)
    struck = set(log.read_text().split()) if log.exists() else set()
    return merged_readout(manifest, shard_dir), struck


def test_seed_census():
    """The suite ships the promised number of deterministic plans."""
    seeds = (
        CRASH_SEEDS
        + HANG_SEEDS
        + CORRUPT_SEEDS
        + TORN_SEEDS
        + RANDOM_SEEDS
        + TRANSPORT_DROP_SEEDS
        + TRANSPORT_CORRUPT_SEEDS
        + TRANSPORT_HANG_SEEDS
        + TRANSPORT_RAISE_SEEDS
    )
    assert len(seeds) == len(set(seeds)) == 36 >= 20


# ----------------------------------------------------------------------
# Worker crashes (os._exit from inside a fork shard worker)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_crash_plans(seed, npz_study, tmp_path):
    path, study = npz_study
    rng = random.Random(seed)
    hit = 1 + seed % 3
    plan = FaultPlan([FaultSpec("parallel.worker", "crash", hit=hit)], seed=seed)
    metrics = RunMetrics()
    # Six shards over two workers: some worker runs at least three, so
    # every hit in 1..3 is reached (empty shards merge cleanly).
    result, struck = run_shards_with_recovery(
        plan, path, tmp_path, 6, metrics, retries=rng.randint(0, 2)
    )
    assert struck == {f"parallel.worker:crash:{hit}"}
    assert metrics.counter("faults.worker_deaths") >= 1
    assert_streams_equal_batch(result, study)


# ----------------------------------------------------------------------
# Hung shards (worker sleeps far past the per-shard timeout)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", HANG_SEEDS)
def test_hang_plans(seed, npz_study, tmp_path):
    path, study = npz_study
    rng = random.Random(seed)
    plan = FaultPlan(
        [FaultSpec("parallel.worker", "hang", hit=1, arg=30.0)], seed=seed
    )
    metrics = RunMetrics()
    result, struck = run_shards_with_recovery(
        plan,
        path,
        tmp_path,
        3,
        metrics,
        retries=rng.randint(0, 1),
        task_timeout=1.0,
    )
    assert struck == {"parallel.worker:hang:1"}
    assert metrics.counter("faults.task_timeouts") >= 1
    assert_streams_equal_batch(result, study)


# ----------------------------------------------------------------------
# Corrupted CSV rows (unparseable size field injected mid-stream)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CORRUPT_SEEDS)
def test_corrupt_row_plans(seed, csv_study, tmp_path):
    """Without quarantine a corrupted row is a hard, typed abort — and
    the checkpoint written on the way out makes the retry cheap."""
    pairs, study = csv_study
    rng = random.Random(seed)
    plan = FaultPlan(
        [FaultSpec("io.packet_row", "corrupt", hit=rng.randint(1, 15000))],
        seed=seed,
    )
    ckpt = tmp_path / "run.ckpt.npz"

    def make_ingestor():
        return StreamIngestor(
            CsvStreamSource(pairs, chunk_size=CHUNK),
            checkpoint_path=ckpt,
        )

    with faults.installed(plan):
        with pytest.raises(StreamError, match="malformed packet row"):
            make_ingestor().run()
    assert ckpt.exists()
    result = make_ingestor().run(resume=True)
    assert_streams_equal_batch(result, study)


# ----------------------------------------------------------------------
# Torn checkpoint writes (truncated mid-write, before the rename)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", TORN_SEEDS)
def test_torn_checkpoint_plans(seed, npz_study, tmp_path):
    path, study = npz_study
    rng = random.Random(seed)
    fraction = rng.uniform(0.2, 0.8)
    ckpt = tmp_path / "run.ckpt.npz"

    def make_ingestor(metrics=None):
        return StreamIngestor(
            NpzStreamSource(path, chunk_size=CHUNK),
            checkpoint_path=ckpt,
            checkpoint_every=2 if seed % 2 else 0,
            metrics=metrics,
        )

    if seed % 2 == 0:
        # Only save is the kill-point save, and it tears: the checksum
        # must reject it and the recovery is a fresh, full run.
        plan = FaultPlan(
            [FaultSpec("checkpoint.save", "torn", hit=1, arg=fraction)],
            seed=seed,
        )
        with faults.installed(plan):
            assert make_ingestor().run(max_chunks=4) is None
        with pytest.raises(StreamError):
            make_ingestor().run(resume=True)
        result = make_ingestor().run()
    else:
        # The second save tears; the first survives as ``.prev`` and
        # resume silently falls back to it.
        plan = FaultPlan(
            [FaultSpec("checkpoint.save", "torn", hit=2, arg=fraction)],
            seed=seed,
        )
        with faults.installed(plan):
            assert make_ingestor().run(max_chunks=4) is None
        metrics = RunMetrics()
        result = make_ingestor(metrics).run(resume=True)
        assert metrics.counter("faults.checkpoint_fallback") == 1
    assert_streams_equal_batch(result, study)


# ----------------------------------------------------------------------
# Sharded ingestion under fire (repro.shard)
# ----------------------------------------------------------------------
SHARD_KILL_SEEDS = [200, 201, 202]


@pytest.mark.parametrize("seed", SHARD_KILL_SEEDS)
def test_shard_worker_killed_mid_ingest(seed, npz_study, tmp_path):
    """A shard-executor process crashes mid-ingest. The run surfaces a
    typed ShardError naming the shard, the merge refuses the partial
    state, and the documented recovery — rerun the same command —
    resumes from the per-shard checkpoints to an exact merge."""
    path, study = npz_study
    rng = random.Random(seed)
    manifest = ShardManifest.plan(
        NpzStreamSource(path, chunk_size=CHUNK), 3
    )
    shard_dir = tmp_path / "shards"
    plan = FaultPlan(
        [
            FaultSpec(
                "parallel.worker", "crash", hit=1 + rng.randint(0, 2)
            )
        ],
        seed=seed,
    )
    with faults.installed(plan):
        try:
            run_all_shards(
                manifest,
                shard_dir,
                shard_workers=2,
                checkpoint_every=1,
            )
            completed = True
        except ShardError:
            completed = False
    if not completed:
        # The partial state must never merge silently.
        with pytest.raises((ShardIncomplete, StreamError)):
            merge_shard_checkpoints(manifest, shard_dir)
        run_all_shards(
            manifest, shard_dir, shard_workers=2, checkpoint_every=1
        )
    result = merged_readout(manifest, shard_dir)
    assert_streams_equal_batch(result, study)


def test_torn_shard_manifest_refused(npz_study, tmp_path):
    """A manifest write torn mid-file (the ``shard.manifest`` fault
    site) fails digest verification on load — never a half-read plan."""
    path, _ = npz_study
    manifest = ShardManifest.plan(
        NpzStreamSource(path, chunk_size=CHUNK), 2
    )
    out = tmp_path / "plan.json"
    plan = FaultPlan(
        [FaultSpec("shard.manifest", "torn", hit=1, arg=0.5)], seed=5
    )
    with faults.installed(plan):
        manifest.save(out)
    with pytest.raises(StreamError):
        ShardManifest.load(out)
    # The rewrite (disarmed) heals the plan in place.
    manifest.save(out)
    assert ShardManifest.load(out).digest() == manifest.digest()


def test_corrupt_shard_checkpoint_never_merges_wrong(npz_study, tmp_path):
    """Corrupt bytes in one shard's checkpoint: the merge refuses with
    a typed error naming the shard, the rerun fails typed too (the
    corruption is detected, not resumed into), and after clearing the
    bad file the plan converges to an exact merge."""
    path, study = npz_study
    manifest = ShardManifest.plan(
        NpzStreamSource(path, chunk_size=CHUNK), 2
    )
    shard_dir = tmp_path / "shards"
    for index in range(2):
        run_shard(manifest, index, shard_dir)
    victim = shard_checkpoint_path(shard_dir, 1)
    victim.write_bytes(b"\x00" * 128)
    with pytest.raises(ShardIncomplete) as excinfo:
        merge_shard_checkpoints(manifest, shard_dir)
    assert excinfo.value.indices == [1]
    with pytest.raises(StreamError):
        run_shard(manifest, 1, shard_dir)
    victim.unlink()
    run_shard(manifest, 1, shard_dir)
    assert_streams_equal_batch(
        merged_readout(manifest, shard_dir), study
    )


# ----------------------------------------------------------------------
# Remote transport under fire (repro.shard.transport)
# ----------------------------------------------------------------------
# These plans hit the three transport fault sites with every action
# that is safe to fire in-process (``crash`` would ``os._exit`` the
# test runner; the worker-process crash lives in
# tests/test_transport.py with real subprocess workers). The bar is
# the same as everywhere else in this file: faults may cost retries
# and reassignment, never correctness — the merged readout must stay
# ``array_equal`` to the fault-free batch reference.

from test_transport import worker_pool  # noqa: E402

from repro.shard import HttpTransport  # noqa: E402


def run_http_sharded(manifest, shard_dir, tmp_path, **transport_kw):
    """Dispatch over a 2-worker in-process pool and return the merge."""
    with worker_pool(tmp_path / "pool", count=2) as (urls, _servers):
        HttpTransport(urls, **transport_kw).dispatch(manifest, shard_dir)
    return merged_readout(manifest, shard_dir)


@pytest.mark.parametrize("seed", TRANSPORT_DROP_SEEDS)
def test_transport_dropped_dispatch_plans(seed, npz_study, tmp_path):
    """A shard POST evaporates before reaching any worker (the
    ``transport.dispatch`` site). The scheduler retries the shard and
    the merge is exact."""
    path, study = npz_study
    rng = random.Random(seed)
    manifest = ShardManifest.plan(
        NpzStreamSource(path, chunk_size=CHUNK), 3
    )
    plan = FaultPlan(
        [
            FaultSpec(
                "transport.dispatch", "drop", hit=1 + rng.randint(0, 2)
            )
        ],
        seed=seed,
    )
    metrics = RunMetrics()
    with faults.installed(plan):
        with worker_pool(tmp_path / "pool", count=2) as (urls, _servers):
            HttpTransport(urls, retries=4).dispatch(
                manifest, tmp_path / "shards", metrics=metrics
            )
    counters = metrics.as_dict()["counters"]
    assert counters["transport.dropped_dispatches"] == 1
    result = merged_readout(manifest, tmp_path / "shards")
    assert_streams_equal_batch(result, study)


@pytest.mark.parametrize("seed", TRANSPORT_CORRUPT_SEEDS)
def test_transport_corrupt_download_plans(seed, npz_study, tmp_path):
    """A checkpoint download corrupts in flight (the
    ``transport.collect`` site). The checksum rejects it before it
    lands, the re-download is clean, and the merge is exact."""
    path, study = npz_study
    rng = random.Random(seed)
    manifest = ShardManifest.plan(
        NpzStreamSource(path, chunk_size=CHUNK), 3
    )
    plan = FaultPlan(
        [
            FaultSpec(
                "transport.collect", "corrupt", hit=1 + rng.randint(0, 2)
            )
        ],
        seed=seed,
    )
    metrics = RunMetrics()
    with faults.installed(plan):
        with worker_pool(tmp_path / "pool", count=2) as (urls, _servers):
            HttpTransport(urls, retries=4).dispatch(
                manifest, tmp_path / "shards", metrics=metrics
            )
    counters = metrics.as_dict()["counters"]
    assert counters["transport.corrupt_checkpoints"] == 1
    result = merged_readout(manifest, tmp_path / "shards")
    assert_streams_equal_batch(result, study)


@pytest.mark.parametrize("seed", TRANSPORT_HANG_SEEDS)
def test_transport_worker_hang_plans(seed, npz_study, tmp_path):
    """A worker stalls mid-shard, single-flight lock held (the
    ``transport.worker`` site, ``hang``). The coordinator times the
    attempt out and reassigns; the eventual merge is exact."""
    path, study = npz_study
    manifest = ShardManifest.plan(
        NpzStreamSource(path, chunk_size=CHUNK), 3
    )
    plan = FaultPlan(
        [FaultSpec("transport.worker", "hang", hit=1, arg=1.0)],
        seed=seed,
    )
    with faults.installed(plan):
        result = run_http_sharded(
            manifest,
            tmp_path / "shards",
            tmp_path,
            retries=6,
            timeout=0.3,
        )
    assert_streams_equal_batch(result, study)


@pytest.mark.parametrize("seed", TRANSPORT_RAISE_SEEDS)
def test_transport_worker_raise_plans(seed, npz_study, tmp_path):
    """A worker's shard handler dies with an unhandled exception (the
    ``transport.worker`` site, ``raise``): the connection drops without
    a response, the coordinator retries, the merge is exact."""
    path, study = npz_study
    manifest = ShardManifest.plan(
        NpzStreamSource(path, chunk_size=CHUNK), 3
    )
    plan = FaultPlan(
        [FaultSpec("transport.worker", "raise", hit=1)], seed=seed
    )
    with faults.installed(plan):
        result = run_http_sharded(
            manifest, tmp_path / "shards", tmp_path, retries=6
        )
    assert_streams_equal_batch(result, study)


# ----------------------------------------------------------------------
# Live-follow kills (repro.follow): eviction, checkpoint rotation, tail
# ----------------------------------------------------------------------
FOLLOW_EVICT_SEEDS = [300, 301]
FOLLOW_TORN_SEEDS = [310, 311]
FOLLOW_TAIL_SEEDS = [320, 321]

FOLLOW_WINDOWS = (WindowSpec("lastfour", 14400, 3600),)


def make_follower(pairs, checkpoint, metrics=None):
    """A follower with cadence checkpoints off — every save in these
    plans is a deliberate one (on stop, error, or idle)."""
    return Follower(
        TailCsvSource(pairs, chunk_size=512),
        checkpoint_path=checkpoint,
        windows=FOLLOW_WINDOWS,
        checkpoint_every=10**6,
        poll_interval=0.0,
        metrics=metrics,
        emit=lambda line: None,
    )


def follow_state(follower):
    """What resume identity is judged on: the headline log plus each
    ring's final evaluated bucket and exact fold digest."""
    return (
        list(follower.headline_log),
        {
            name: (ring.last_evaluated, ring.fold_digest(ring.last_evaluated))
            for name, ring in follower.rings.items()
        },
    )


@pytest.fixture(scope="module")
def follow_reference(csv_study, tmp_path_factory):
    """The uninterrupted follow over the chaos CSVs."""
    pairs, _ = csv_study
    checkpoint = tmp_path_factory.mktemp("follow_ref") / "follow.npz"
    follower = make_follower(pairs, checkpoint)
    assert follower.run(idle_exit=2) == "idle"
    return follow_state(follower)


@pytest.mark.parametrize("seed", FOLLOW_EVICT_SEEDS)
def test_follow_killed_during_eviction(seed, csv_study, follow_reference, tmp_path):
    """The fault strikes inside ``WindowRing.evict_through`` — after a
    window evaluation, before its buckets drop. The error path must
    still checkpoint, and the resume must replay to the exact windows
    and headlines of the uninterrupted run."""
    pairs, _ = csv_study
    checkpoint = tmp_path / "follow.npz"
    plan = FaultPlan([FaultSpec("follow.evict", "raise", hit=1)], seed=seed)
    with faults.installed(plan):
        with pytest.raises(FaultInjected):
            make_follower(pairs, checkpoint).run(idle_exit=2)
    assert checkpoint.exists()
    resumed = make_follower(pairs, checkpoint)
    assert resumed.run(resume=True, idle_exit=2) == "idle"
    assert follow_state(resumed) == follow_reference


@pytest.mark.parametrize("seed", FOLLOW_TORN_SEEDS)
def test_follow_torn_checkpoint_rotation(seed, csv_study, follow_reference, tmp_path):
    """A checkpoint save torn mid-rotation: the torn file has replaced
    the good generation, which survives as ``.prev``. Resume falls back
    to it silently and converges to the uninterrupted state."""
    pairs, _ = csv_study
    checkpoint = tmp_path / "follow.npz"
    rng = random.Random(seed)
    first = make_follower(pairs, checkpoint)
    assert first.run(max_polls=1) == "stopped"  # save #1, intact
    plan = FaultPlan(
        [
            FaultSpec(
                "checkpoint.save", "torn", hit=1, arg=rng.uniform(0.2, 0.8)
            )
        ],
        seed=seed,
    )
    with faults.installed(plan):
        # This run's only save (at stop) tears, rotating save #1 to
        # ``.prev`` and leaving a corrupt current file.
        second = make_follower(pairs, checkpoint)
        assert second.run(resume=True, max_polls=1) == "stopped"
    metrics = RunMetrics()
    final = make_follower(pairs, checkpoint, metrics=metrics)
    assert final.run(resume=True, idle_exit=2) == "idle"
    assert metrics.counter("faults.checkpoint_fallback") == 1
    assert follow_state(final) == follow_reference


@pytest.mark.parametrize("seed", FOLLOW_TAIL_SEEDS)
def test_follow_killed_during_partial_tail_read(
    seed, csv_study, follow_reference, tmp_path
):
    """The fault strikes a tail poll — after some users were polled,
    with their chunks pending but unprocessed. Dropped pending chunks
    were never cursor-adopted, so the resumed tail re-reads them."""
    pairs, _ = csv_study
    checkpoint = tmp_path / "follow.npz"
    plan = FaultPlan(
        [FaultSpec("follow.tail", "raise", hit=1 + seed % 2)], seed=seed
    )
    with faults.installed(plan):
        with pytest.raises(FaultInjected):
            make_follower(pairs, checkpoint).run(idle_exit=2)
    assert checkpoint.exists()
    resumed = make_follower(pairs, checkpoint)
    assert resumed.run(resume=True, idle_exit=2) == "idle"
    assert follow_state(resumed) == follow_reference


# ----------------------------------------------------------------------
# Randomised plans (multiple faults, sites and hit counts per seed)
# ----------------------------------------------------------------------
#: The specs of each random plan that strike, all others being out of
#: reach of a local sharded ingest: ``follow.*`` fires only in ``repro
#: follow``, ``transport.*`` only in the http coordinator and its
#: workers, ``attribute.task`` only in batch attribution, and
#: ``shard.manifest`` only when a manifest is saved, which the harness
#: never does. Seed 101's ``npz.member`` hit 4 and seed 105's
#: ``checkpoint.save`` hit 3 count past the three members one worker
#: reads and the two checkpoints a worker writes (one per shard).
RANDOM_STRUCK = {104: {"npz.member:truncate:3"}}


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_plans(seed, npz_study, tmp_path):
    path, study = npz_study
    plan = FaultPlan.random(seed)
    users = list(NpzStreamSource(path, chunk_size=CHUNK).user_ids)
    # One shard holds every user, so one worker reads the whole study
    # and each per-process hit count lands on the read it always did.
    result, struck = run_shards_with_recovery(
        plan, path, tmp_path, [users, []], retries=3, task_timeout=1.0
    )
    assert struck == RANDOM_STRUCK.get(seed, set())
    assert_streams_equal_batch(result, study)
