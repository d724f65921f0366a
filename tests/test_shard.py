"""repro.shard: plan → execute → merge, bit-identical to unsharded.

The package's contract has three prongs, each tested here:

* **Determinism** — :func:`shard_of` is a salt-free stable hash, the
  manifest round-trips through its checksummed JSON byte-exactly, and
  torn or tampered manifests are refused with a typed
  :class:`~repro.errors.ShardError`.
* **Exactness** — for *any* partition of the users (random, uneven,
  with empty shards; a property test draws them from seeded rngs) the
  merged readout is ``array_equal`` to the unsharded streamed run and
  to the batch reference, and derives the **same**
  :class:`~repro.store.keys.StoreKey`/ETag as the unsharded
  checkpoint, so the store and ``repro serve`` are shard-oblivious.
* **Refusal totality** — a missing, mid-run, corrupt or
  foreign-plan shard checkpoint can never produce a merge: each path
  raises :class:`~repro.errors.ShardIncomplete` /
  :class:`~repro.errors.ShardError`, and a shard checkpoint refuses to
  become a readout on its own.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from repro import StudyConfig, StudyEnergy, faults, generate_study
from repro.cli import EXIT_SHARD_INCOMPLETE, main
from repro.core.readout import readout_from_checkpoint
from repro.errors import ShardError, ShardIncomplete, StreamError
from repro.faults import FaultPlan, FaultSpec
from repro.metrics import RunMetrics
from repro.shard import (
    ShardManifest,
    ShardSource,
    default_shard_dir,
    merge_shard_checkpoints,
    merge_to_checkpoint,
    merged_readout,
    plan_shards,
    run_all_shards,
    run_shard,
    shard_checkpoint_path,
    shard_header,
    shard_is_complete,
    shard_of,
    shard_signature,
)
from repro.store import store_key_for
from repro.stream import (
    CsvStreamSource,
    NpzStreamSource,
    StreamCheckpoint,
    StreamIngestor,
)
from repro.trace.io_text import write_events_csv, write_packets_csv

from test_stream import assert_streams_equal_batch

CHUNK = 4096


# ----------------------------------------------------------------------
# Fixtures: one study on disk, its batch reference, and the unsharded
# streamed checkpoint every merge is compared against.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def study_npz(tmp_path_factory):
    dataset = generate_study(
        StudyConfig(n_users=5, duration_days=2.0, seed=41)
    )
    path = tmp_path_factory.mktemp("shard") / "study.npz"
    dataset.save(path)
    return path, StudyEnergy(dataset)


@pytest.fixture(scope="module")
def unsharded(study_npz, tmp_path_factory):
    """The unsharded streamed run's checkpoint and readout."""
    path, _ = study_npz
    ckpt = tmp_path_factory.mktemp("plain") / "plain.ckpt.npz"
    StreamIngestor(
        NpzStreamSource(path, chunk_size=CHUNK), checkpoint_path=ckpt
    ).run()
    return ckpt, readout_from_checkpoint(ckpt)


def make_manifest(path, n_shards, **kwargs):
    return ShardManifest.plan(
        NpzStreamSource(path, chunk_size=CHUNK), n_shards, **kwargs
    )


def run_plan_serially(manifest, shard_dir, **kwargs):
    """Execute every shard in-process (no pool) for fast tests."""
    return [
        run_shard(manifest, index, shard_dir, **kwargs)
        for index in range(manifest.n_shards)
    ]


def assert_readouts_identical(got, want):
    """Every grouped total bit-identical between two readouts."""
    for name in ("energy_by_app", "energy_by_app_state", "energy_by_state"):
        a, b = getattr(got, name)(), getattr(want, name)()
        assert list(a) == list(b), f"{name} keys differ"
        assert np.array_equal(
            np.array(list(a.values())), np.array(list(b.values()))
        ), f"{name} values differ"
    assert got.total_energy == want.total_energy
    assert got.idle_energy == want.idle_energy
    assert got.bytes_by_app() == want.bytes_by_app()


# ----------------------------------------------------------------------
# Planner: stable hashing, exact partitions, manifest persistence
# ----------------------------------------------------------------------
def test_shard_of_is_deterministic_and_in_range():
    for uid in (0, 1, 7, 123456, 2**40):
        for n in (1, 2, 3, 16):
            k = shard_of(uid, n)
            assert 0 <= k < n
            assert k == shard_of(uid, n), "shard_of must be stable"


def test_shard_of_rejects_zero_shards():
    with pytest.raises(ShardError, match="n_shards"):
        shard_of(1, 0)


def test_plan_shards_is_an_exact_partition_in_parent_order():
    users = [9, 3, 17, 5, 21, 2, 44]
    shards = plan_shards(users, 3)
    assert sorted(u for shard in shards for u in shard) == sorted(users)
    order = {u: i for i, u in enumerate(users)}
    for shard in shards:
        assert shard == sorted(shard, key=order.__getitem__), (
            "each shard must keep parent-source user order"
        )


def test_manifest_roundtrip(study_npz, tmp_path):
    path, _ = study_npz
    manifest = make_manifest(path, 3)
    out = tmp_path / "plan.json"
    manifest.save(out)
    loaded = ShardManifest.load(out)
    assert loaded.digest() == manifest.digest()
    assert loaded.users == manifest.users
    assert loaded.shards == manifest.shards
    assert loaded.signature == manifest.signature
    assert loaded.model_repr == manifest.model_repr
    assert loaded.policy_value == manifest.policy_value
    assert loaded.cadence == manifest.cadence
    assert loaded.source_spec == manifest.source_spec


def test_torn_manifest_refused(study_npz, tmp_path):
    path, _ = study_npz
    out = tmp_path / "plan.json"
    make_manifest(path, 3).save(out)
    text = out.read_text()
    out.write_text(text[: len(text) // 2])
    with pytest.raises(ShardError, match="torn or corrupt"):
        ShardManifest.load(out)


def test_tampered_manifest_fails_digest(study_npz, tmp_path):
    path, _ = study_npz
    out = tmp_path / "plan.json"
    make_manifest(path, 2).save(out)
    document = json.loads(out.read_text())
    # Move one user between shards but keep the stale digest.
    document["shards"][0], document["shards"][1] = (
        document["shards"][0][1:],
        document["shards"][1] + document["shards"][0][:1],
    )
    out.write_text(json.dumps(document))
    with pytest.raises(ShardError, match="digest verification"):
        ShardManifest.load(out)


def test_not_a_manifest_refused(tmp_path):
    out = tmp_path / "plan.json"
    out.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(ShardError, match="not a shard manifest"):
        ShardManifest.load(out)


def test_partition_validation_rejects_duplicates_and_gaps(study_npz):
    path, _ = study_npz
    source = NpzStreamSource(path, chunk_size=CHUNK)
    users = list(source.user_ids)
    with pytest.raises(ShardError, match="assigned to both"):
        ShardManifest.plan(source, 2, shards=[users, users[:1]])
    with pytest.raises(ShardError, match="not an exact partition"):
        ShardManifest.plan(source, 2, shards=[users[1:], []])


def test_model_drift_refused(study_npz):
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    manifest.model_repr = "LteModel(tampered=True)"
    with pytest.raises(ShardError, match="no longer matches the plan"):
        manifest.model()


def test_shard_users_range_checked(study_npz):
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    with pytest.raises(ShardError, match="out of range"):
        manifest.shard_users(2)


def test_shard_source_restricts_users_and_signs(study_npz):
    path, _ = study_npz
    parent = NpzStreamSource(path, chunk_size=CHUNK)
    manifest = make_manifest(path, 2)
    for index in range(2):
        shard = ShardSource(parent, manifest, index)
        assert shard.user_ids == manifest.shard_users(index)
        assert shard.signature() == shard_signature(manifest, index)
        assert shard.signature() != parent.signature()
        assert shard.registry is parent.registry
    assert shard_signature(manifest, 0) != shard_signature(manifest, 1)


def test_shard_source_refuses_mismatched_parent(study_npz, tmp_path):
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    other = generate_study(StudyConfig(n_users=2, duration_days=1.0, seed=7))
    other_path = tmp_path / "other.npz"
    other.save(other_path)
    with pytest.raises(ShardError, match="does not match the shard manifest"):
        ShardSource(NpzStreamSource(other_path), manifest, 0)


# ----------------------------------------------------------------------
# Property test: any partition merges bit-identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_partitions_merge_bit_identical(
    seed, study_npz, unsharded, tmp_path
):
    """Seeded random partitions — uneven, singleton and empty shards
    included — all merge to totals ``array_equal`` with the unsharded
    run and the batch reference."""
    path, study = study_npz
    rng = random.Random(seed)
    source = NpzStreamSource(path, chunk_size=CHUNK)
    users = list(source.user_ids)
    # One more shard than users guarantees at least one empty shard.
    n_shards = rng.randint(1, len(users) + 1)
    shards = [[] for _ in range(n_shards)]
    for uid in users:
        shards[rng.randrange(n_shards)].append(uid)
    manifest = ShardManifest.plan(source, n_shards, shards=shards)
    shard_dir = tmp_path / "shards"
    run_plan_serially(manifest, shard_dir, source=source)
    merged = merged_readout(manifest, shard_dir)
    _, plain = unsharded
    assert_readouts_identical(merged, plain)
    assert_streams_equal_batch(merged, study)


def test_hash_planned_shards_merge_bit_identical(
    study_npz, unsharded, tmp_path
):
    """The default shard_of partition, end to end via run_all_shards."""
    path, study = study_npz
    manifest = make_manifest(path, 3)
    shard_dir = tmp_path / "shards"
    metrics = RunMetrics()
    reports = run_all_shards(
        manifest, shard_dir, shard_workers=1, metrics=metrics
    )
    assert len(reports) == 3
    assert all(report["complete"] for report in reports)
    assert metrics.counter("shard.completed") == 3
    assert metrics.counter("stream.packets") > 0, (
        "worker metrics must be absorbed into the parent RunMetrics"
    )
    merged = merged_readout(manifest, shard_dir)
    _, plain = unsharded
    assert_readouts_identical(merged, plain)
    assert_streams_equal_batch(merged, study)


def test_single_shard_plan_equals_unsharded(study_npz, unsharded, tmp_path):
    path, _ = study_npz
    manifest = make_manifest(path, 1)
    shard_dir = tmp_path / "shards"
    run_plan_serially(manifest, shard_dir)
    _, plain = unsharded
    assert_readouts_identical(merged_readout(manifest, shard_dir), plain)


# ----------------------------------------------------------------------
# Store identity: the merged checkpoint keys exactly like the
# unsharded one, so the store and `repro serve` are shard-oblivious.
# ----------------------------------------------------------------------
def test_merged_checkpoint_derives_the_unsharded_store_key(
    study_npz, unsharded, tmp_path
):
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    shard_dir = tmp_path / "shards"
    run_plan_serially(manifest, shard_dir)
    out = tmp_path / "merged.ckpt.npz"
    merge_to_checkpoint(manifest, shard_dir, out)
    merged = readout_from_checkpoint(out)
    plain_ckpt, plain = unsharded
    for analysis in ("fig3", "table1", "headlines"):
        merged_key = store_key_for(merged, analysis)
        plain_key = store_key_for(plain, analysis)
        assert merged_key == plain_key
        assert merged_key.etag() == plain_key.etag()


def test_shard_checkpoint_refuses_to_become_a_readout(study_npz, tmp_path):
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    shard_dir = tmp_path / "shards"
    run_shard(manifest, 0, shard_dir)
    with pytest.raises(StreamError, match="repro shard merge"):
        readout_from_checkpoint(shard_checkpoint_path(shard_dir, 0))


# ----------------------------------------------------------------------
# Idempotency and resume
# ----------------------------------------------------------------------
def test_rerun_skips_complete_shards(study_npz, tmp_path):
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    shard_dir = tmp_path / "shards"
    run_plan_serially(manifest, shard_dir)
    metrics = RunMetrics()
    reports = run_plan_serially(manifest, shard_dir, metrics=metrics)
    assert all(r["skipped"] for r in reports)
    assert metrics.counter("shard.skipped") == 2
    assert all(
        shard_is_complete(manifest, shard_dir, k)
        for k in range(manifest.n_shards)
    )


def test_killed_shard_resumes_without_recomputation(
    study_npz, unsharded, tmp_path
):
    """A shard stopped mid-run (bounded slice) leaves a partial
    checkpoint; the rerun resumes it and the merge is still exact."""
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    shard_dir = tmp_path / "shards"
    report = run_shard(
        manifest, 0, shard_dir, checkpoint_every=1, max_chunks=1
    )
    assert not report["complete"]
    assert not shard_is_complete(manifest, shard_dir, 0)
    with pytest.raises(ShardIncomplete):
        merge_shard_checkpoints(manifest, shard_dir)
    run_plan_serially(manifest, shard_dir)
    _, plain = unsharded
    assert_readouts_identical(merged_readout(manifest, shard_dir), plain)


def test_stale_checkpoint_from_another_plan_refused(study_npz, tmp_path):
    """A checkpoint written under a different partition of the same
    study must not be silently reused or merged."""
    path, _ = study_npz
    source = NpzStreamSource(path, chunk_size=CHUNK)
    users = list(source.user_ids)
    manifest_a = ShardManifest.plan(
        source, 2, shards=[users[:2], users[2:]]
    )
    manifest_b = ShardManifest.plan(
        source, 2, shards=[users[:3], users[3:]]
    )
    shard_dir = tmp_path / "shards"
    run_plan_serially(manifest_a, shard_dir, source=source)
    with pytest.raises(ShardError, match="different plan or shard"):
        shard_is_complete(manifest_b, shard_dir, 0)
    with pytest.raises(ShardError, match="different plan or shard"):
        merge_shard_checkpoints(manifest_b, shard_dir)


# ----------------------------------------------------------------------
# Merge refusals
# ----------------------------------------------------------------------
def test_merge_missing_shard_raises_shard_incomplete(study_npz, tmp_path):
    path, _ = study_npz
    manifest = make_manifest(path, 3)
    shard_dir = tmp_path / "shards"
    run_shard(manifest, 0, shard_dir)
    run_shard(manifest, 2, shard_dir)
    with pytest.raises(ShardIncomplete) as excinfo:
        merge_shard_checkpoints(
            manifest, shard_dir, manifest_path="plan.json"
        )
    assert excinfo.value.indices == [1]
    assert excinfo.value.manifest_path == "plan.json"
    assert "repro shard run plan.json" in str(excinfo.value)


def test_merge_policy_mismatch_refused(study_npz, tmp_path):
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    shard_dir = tmp_path / "shards"
    run_plan_serially(manifest, shard_dir)
    manifest.policy_value = "whole_burst"
    with pytest.raises(ShardError, match="different plan or shard"):
        merge_shard_checkpoints(manifest, shard_dir)


def test_empty_shard_merges_cleanly(study_npz, unsharded, tmp_path):
    path, _ = study_npz
    source = NpzStreamSource(path, chunk_size=CHUNK)
    users = list(source.user_ids)
    manifest = ShardManifest.plan(source, 3, shards=[users, [], []])
    shard_dir = tmp_path / "shards"
    reports = run_plan_serially(manifest, shard_dir, source=source)
    assert [r["users"] for r in reports] == [len(users), 0, 0]
    _, plain = unsharded
    assert_readouts_identical(merged_readout(manifest, shard_dir), plain)


@pytest.mark.parametrize("indices", [None, [0]], ids=["all", "lone"])
def test_shard_pool_enforces_task_timeout(
    study_npz, unsharded, tmp_path, indices
):
    """``task_timeout`` is a per-shard hang timeout that the shard pool
    enforces: a hung shard worker is killed and its shard reported
    long before the hang would end, and a disarmed rerun merges
    exactly. A lone shard keeps its pool too, or nothing could time it
    out."""
    path, _ = study_npz
    manifest = make_manifest(path, 3)
    shard_dir = tmp_path / "shards"
    metrics = RunMetrics()
    plan = FaultPlan(
        [FaultSpec("parallel.worker", "hang", hit=1, arg=5.0)], seed=0
    )
    start = time.perf_counter()
    with faults.installed(plan):
        with pytest.raises(ShardError, match="shard 0: timeout"):
            run_all_shards(
                manifest,
                shard_dir,
                indices=indices,
                shard_workers=2,
                task_timeout=0.5,
                metrics=metrics,
            )
    assert time.perf_counter() - start < 3.0
    assert metrics.counter("faults.task_timeouts") >= 1
    run_all_shards(manifest, shard_dir, shard_workers=2)
    _, plain = unsharded
    assert_readouts_identical(merged_readout(manifest, shard_dir), plain)


def test_task_timeout_needs_a_shard_pool(study_npz, tmp_path):
    """A one-process pool runs its shards in process, where no timeout
    can reach them: asking for one there is an error, not a no-op."""
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    with pytest.raises(ValueError, match="at least 2 worker processes"):
        run_all_shards(
            manifest, tmp_path / "shards", shard_workers=1, task_timeout=5.0
        )
    assert not (tmp_path / "shards").exists()


def test_run_all_shards_range_checks_indices(study_npz, tmp_path):
    path, _ = study_npz
    manifest = make_manifest(path, 2)
    with pytest.raises(ShardError, match="out of range"):
        run_all_shards(manifest, tmp_path / "shards", indices=[5])


def test_shard_incomplete_pickles():
    """ShardIncomplete crosses process boundaries (TaskPool workers)."""
    import pickle

    exc = ShardIncomplete("plan.json", [1, 3], "shard 1: no checkpoint")
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.manifest_path == "plan.json"
    assert clone.indices == [1, 3]
    assert str(clone) == str(exc)


# ----------------------------------------------------------------------
# CLI: repro shard plan|run|merge and repro ingest --shards
# ----------------------------------------------------------------------
def test_cli_plan_run_merge_roundtrip(
    study_npz, unsharded, tmp_path, capsys
):
    path, _ = study_npz
    plan = tmp_path / "plan.json"
    merged = tmp_path / "merged.ckpt.npz"
    assert main(
        ["shard", "plan", "--dataset", str(path), "--shards", "3",
         "--chunk-size", str(CHUNK), "--out", str(plan)]
    ) == 0
    assert main(
        ["shard", "run", str(plan), "--workers", "1", "--quiet"]
    ) == 0
    assert main(
        ["shard", "merge", str(plan), "--out", str(merged)]
    ) == 0
    assert default_shard_dir(plan).is_dir()
    _, plain = unsharded
    assert_readouts_identical(readout_from_checkpoint(merged), plain)
    capsys.readouterr()
    # The rendered figure is byte-identical from either checkpoint.
    plain_ckpt, _ = unsharded
    assert main(["figure", "3", "--from-checkpoint", str(merged)]) == 0
    from_merged = capsys.readouterr().out
    assert main(["figure", "3", "--from-checkpoint", str(plain_ckpt)]) == 0
    from_plain = capsys.readouterr().out
    assert from_merged == from_plain


def test_cli_merge_exit_code_on_missing_shard(study_npz, tmp_path, capsys):
    path, _ = study_npz
    plan = tmp_path / "plan.json"
    assert main(
        ["shard", "plan", "--dataset", str(path), "--shards", "3",
         "--chunk-size", str(CHUNK), "--out", str(plan)]
    ) == 0
    assert main(
        ["shard", "run", str(plan), "--shard", "0", "--workers", "1",
         "--quiet"]
    ) == 0
    code = main(
        ["shard", "merge", str(plan), "--out", str(tmp_path / "m.npz")]
    )
    assert code == EXIT_SHARD_INCOMPLETE == 5
    err = capsys.readouterr().err
    assert "not mergeable" in err
    assert "repro shard run" in err


def test_cli_ingest_shards_one_shot(study_npz, unsharded, tmp_path):
    path, _ = study_npz
    ckpt = tmp_path / "oneshot.ckpt.npz"
    assert main(
        ["ingest", "--dataset", str(path), "--shards", "2",
         "--chunk-size", str(CHUNK), "--workers", "1",
         "--checkpoint", str(ckpt)]
    ) == 0
    _, plain = unsharded
    assert_readouts_identical(readout_from_checkpoint(ckpt), plain)
    # The plan is persisted next to the checkpoint and reruns reuse it.
    plan = ckpt.with_name(ckpt.name + ".plan.json")
    assert plan.exists()
    digest = ShardManifest.load(plan).digest()
    assert main(
        ["ingest", "--dataset", str(path), "--shards", "2",
         "--chunk-size", str(CHUNK), "--workers", "1",
         "--checkpoint", str(ckpt)]
    ) == 0
    assert ShardManifest.load(plan).digest() == digest


# ----------------------------------------------------------------------
# Row quarantine: each dropped row is counted once, however sharded
# ----------------------------------------------------------------------
def write_csv_study_with_bad_rows(root, bad_users):
    """A 3-user × 1-day CSV study; one row of each ``bad_users`` packets
    file gets a size that does not parse."""
    dataset = generate_study(StudyConfig(n_users=3, duration_days=1.0, seed=5))
    pairs = []
    for trace in dataset:
        p = root / f"p{trace.user_id}.csv"
        e = root / f"e{trace.user_id}.csv"
        write_packets_csv(p, trace.packets, dataset.registry)
        write_events_csv(e, trace.events, dataset.registry)
        if trace.user_id in bad_users:
            lines = p.read_text().splitlines(keepends=True)
            fields = lines[10].split(",")
            fields[1] = "notanint"
            lines[10] = ",".join(fields)
            p.write_text("".join(lines))
        pairs.append((p, e))
    return pairs


@pytest.mark.parametrize("shard_workers", [1, 2])
def test_sharded_quarantine_counts_each_row_once(tmp_path, shard_workers):
    pairs = write_csv_study_with_bad_rows(tmp_path, bad_users={1, 3})
    plain_metrics = RunMetrics()
    plain_ck = tmp_path / "plain.npz"
    StreamIngestor(
        CsvStreamSource(pairs, chunk_size=CHUNK, quarantine_rows=True),
        checkpoint_path=plain_ck,
        metrics=plain_metrics,
        quarantine=True,
    ).run()
    samples = plain_metrics.samples("faults.rows_quarantined")
    assert plain_metrics.counter("faults.rows_quarantined") == 2
    assert [s.split(":")[0] for s in samples] == ["p1.csv", "p3.csv"]

    source = CsvStreamSource(pairs, chunk_size=CHUNK, quarantine_rows=True)
    manifest = ShardManifest.plan(source, 3, shards=[[1], [2], [3]])
    shard_dir = tmp_path / "shards"
    metrics = RunMetrics()
    run_all_shards(
        manifest,
        shard_dir,
        shard_workers=shard_workers,
        metrics=metrics,
        quarantine=True,
    )
    assert metrics.counter("faults.rows_quarantined") == 2
    assert sorted(metrics.samples("faults.rows_quarantined")) == samples
    assert [
        ShardSource(source, manifest, i).quarantine.count for i in range(3)
    ] == [1, 0, 1]
    assert_readouts_identical(
        merged_readout(manifest, shard_dir), readout_from_checkpoint(plain_ck)
    )

