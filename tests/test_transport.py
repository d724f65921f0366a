"""repro.shard.transport: the local/remote executor seam.

Three contracts, each tested here:

* **Protocol** — :class:`LocalTransport` and :class:`HttpTransport`
  both satisfy the runtime-checkable :class:`ShardTransport` protocol,
  and ``LocalTransport.dispatch`` is bit-identical to calling
  :func:`run_all_shards` directly (same checkpoint bytes, same merged
  checkpoint).
* **Remote exactness** — a property test sweeps random shard counts,
  worker-pool sizes and kill points (dead URLs in the pool, a live
  worker shut down mid-run, dropped dispatches): however the shards
  were placed, the merged readout is ``array_equal`` to the unsharded
  run and derives the same :class:`~repro.store.keys.StoreKey`/ETag —
  and a real worker *process* killed mid-shard (``transport.worker``
  crash via the env hook) is reassigned with the same exactness.
* **Refusal totality** — a worker refuses a tampered or foreign
  manifest with a 400 before a byte of work; a pool that cannot place
  every shard raises :class:`~repro.errors.TransportError`, which the
  CLI maps to exit 8 (:data:`~repro.cli.EXIT_TRANSPORT_FAILED`).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro import StudyConfig, generate_study, faults
from repro.cli import EXIT_TRANSPORT_FAILED, main
from repro.core.readout import readout_from_checkpoint
from repro.errors import TransportError
from repro.faults import FaultPlan, FaultSpec
from repro.metrics import RunMetrics
from repro.shard import (
    HttpTransport,
    LocalTransport,
    ShardManifest,
    ShardTransport,
    make_transport,
    make_worker_server,
    merge_to_checkpoint,
    parse_worker_spec,
    run_all_shards,
    shard_checkpoint_path,
)
from repro.store import store_key_for
from repro.stream import NpzStreamSource, StreamIngestor

from test_shard import assert_readouts_identical

CHUNK = 4096

#: A closed port: connecting fails instantly, which is what a crashed
#: worker looks like to the coordinator.
DEAD_URL = "http://127.0.0.1:9"


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def study_npz(tmp_path_factory):
    dataset = generate_study(
        StudyConfig(n_users=4, duration_days=2.0, seed=47)
    )
    path = tmp_path_factory.mktemp("transport") / "study.npz"
    dataset.save(path)
    return path


@pytest.fixture(scope="module")
def unsharded(study_npz, tmp_path_factory):
    """The unsharded streamed run every remote merge is compared to."""
    ckpt = tmp_path_factory.mktemp("plain") / "plain.ckpt.npz"
    StreamIngestor(
        NpzStreamSource(study_npz, chunk_size=CHUNK), checkpoint_path=ckpt
    ).run()
    return ckpt, readout_from_checkpoint(ckpt)


def make_manifest(path, n_shards):
    return ShardManifest.plan(
        NpzStreamSource(path, chunk_size=CHUNK), n_shards
    )


@contextmanager
def worker_pool(root, count=2, quiet=True):
    """``count`` in-process worker servers on ephemeral ports.

    Yields ``(urls, servers)``; servers are shut down on exit. Each
    worker gets its own workdir, like separate hosts would have.
    """
    servers = []
    threads = []
    for i in range(count):
        server = make_worker_server(root / f"worker{i}", quiet=quiet)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
    urls = [
        f"http://{host}:{port}"
        for host, port in (s.server_address[:2] for s in servers)
    ]
    try:
        yield urls, servers
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=5.0)


def assert_same_as_unsharded(manifest, shard_dir, tmp_path, unsharded):
    """Merged checkpoint == unsharded: readout, provenance, keys, ETags."""
    out = tmp_path / "merged.ckpt.npz"
    merge_to_checkpoint(manifest, shard_dir, out)
    merged = readout_from_checkpoint(out)
    plain_ckpt, plain = unsharded
    assert_readouts_identical(merged, plain)
    assert merged.provenance == plain.provenance
    for analysis in ("fig3", "table1", "headlines"):
        merged_key = store_key_for(merged, analysis)
        plain_key = store_key_for(plain, analysis)
        assert merged_key == plain_key
        assert merged_key.etag() == plain_key.etag()
    return out


# ----------------------------------------------------------------------
# Protocol and option parsing
# ----------------------------------------------------------------------
def test_transports_satisfy_protocol():
    assert isinstance(LocalTransport(), ShardTransport)
    assert isinstance(HttpTransport(["http://h:1"]), ShardTransport)
    assert LocalTransport().name == "local"
    assert HttpTransport(["http://h:1"]).name == "http"


def test_parse_worker_spec():
    assert parse_worker_spec(None) == 1
    assert parse_worker_spec(4) == 4
    assert parse_worker_spec("0") == 0
    assert parse_worker_spec("http://a:1") == ["http://a:1"]
    assert parse_worker_spec("http://a:1/, http://b:2") == [
        "http://a:1",
        "http://b:2",
    ]
    with pytest.raises(ValueError):
        parse_worker_spec("three")


def test_make_transport_rejects_mismatches():
    """The worker spec alone picks the transport: a count is the local
    pool, a URL list the worker pool, anything else a ``ValueError``."""
    assert isinstance(make_transport(2), LocalTransport)
    assert isinstance(make_transport(["http://h:1"]), HttpTransport)
    for workers in (None, "2", "http://h:1", 2.0):
        with pytest.raises(ValueError, match="process count or a worker-URL"):
            make_transport(workers)
    with pytest.raises(ValueError):
        make_transport([])
    with pytest.raises(ValueError):
        HttpTransport([])


# ----------------------------------------------------------------------
# LocalTransport: bit-identical to run_all_shards
# ----------------------------------------------------------------------
def test_local_transport_bit_identical_to_run_all_shards(
    study_npz, tmp_path
):
    manifest = make_manifest(study_npz, 3)
    direct_dir = tmp_path / "direct"
    via_dir = tmp_path / "via"
    run_all_shards(manifest, direct_dir, shard_workers=2)
    reports = LocalTransport(shard_workers=2).dispatch(manifest, via_dir)
    assert [r["index"] for r in reports] == [0, 1, 2]
    assert all(r["complete"] for r in reports)
    for index in range(manifest.n_shards):
        a = shard_checkpoint_path(direct_dir, index).read_bytes()
        b = shard_checkpoint_path(via_dir, index).read_bytes()
        assert a == b, f"shard {index} checkpoint bytes differ"
    out_a = tmp_path / "a.ckpt.npz"
    out_b = tmp_path / "b.ckpt.npz"
    merge_to_checkpoint(manifest, direct_dir, out_a)
    merge_to_checkpoint(manifest, via_dir, out_b)
    assert out_a.read_bytes() == out_b.read_bytes()


# ----------------------------------------------------------------------
# HttpTransport: exactness across a real worker pool
# ----------------------------------------------------------------------
def test_http_transport_merges_identical_to_unsharded(
    study_npz, unsharded, tmp_path
):
    manifest = make_manifest(study_npz, 3)
    metrics = RunMetrics()
    with worker_pool(tmp_path, count=2) as (urls, _servers):
        reports = HttpTransport(urls).dispatch(
            manifest, tmp_path / "shards", metrics=metrics
        )
    assert [r["index"] for r in reports] == [0, 1, 2]
    assert all(r["complete"] for r in reports)
    out = assert_same_as_unsharded(
        manifest, tmp_path / "shards", tmp_path, unsharded
    )
    # The merged checkpoint is not just readout-equal: same bytes.
    assert out.read_bytes() == unsharded[0].read_bytes()
    counters = metrics.as_dict()["counters"]
    assert counters["transport.dispatches"] == 3
    assert counters["transport.bytes_up"] > 0
    assert counters["transport.bytes_down"] > 0
    assert counters["shard.completed"] == 3


def test_http_transport_skips_complete_shards(study_npz, tmp_path):
    """A re-dispatch over a finished shard dir is pure local skips —
    not a byte on the wire (same idempotence rule as the local path)."""
    manifest = make_manifest(study_npz, 2)
    shard_dir = tmp_path / "shards"
    with worker_pool(tmp_path, count=1) as (urls, _servers):
        HttpTransport(urls).dispatch(manifest, shard_dir)
        metrics = RunMetrics()
        reports = HttpTransport(urls).dispatch(
            manifest, shard_dir, metrics=metrics
        )
    assert all(r["skipped"] for r in reports)
    counters = metrics.as_dict()["counters"]
    assert counters.get("transport.dispatches", 0) == 0
    assert counters["shard.skipped"] == 2


PROPERTY_SEEDS = [500, 501, 502]


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_property_random_shards_workers_killpoints(
    seed, study_npz, unsharded, tmp_path
):
    """Random shard count, pool size, dead-URL position and dropped
    dispatch: the merged readout never differs from the unsharded run."""
    rng = random.Random(seed)
    n_shards = rng.randint(1, 5)
    n_workers = rng.randint(1, 3)
    manifest = make_manifest(study_npz, n_shards)
    if rng.random() < 0.5:
        plan = FaultPlan(
            [
                FaultSpec(
                    "transport.dispatch",
                    "drop",
                    hit=rng.randint(1, n_shards),
                )
            ],
            seed=seed,
        )
        faults.install(plan)
    with worker_pool(tmp_path, count=n_workers) as (urls, _servers):
        # A dead URL somewhere in the pool is a worker that crashed
        # before the run; its death must cost reassignment, not truth.
        urls.insert(rng.randint(0, len(urls)), DEAD_URL)
        HttpTransport(urls, retries=4).dispatch(
            manifest, tmp_path / "shards"
        )
    assert_same_as_unsharded(
        manifest, tmp_path / "shards", tmp_path, unsharded
    )


def test_live_worker_killed_mid_run_is_reassigned(
    study_npz, unsharded, tmp_path
):
    """One of two workers is shut down as soon as it has answered its
    first shard; its queue drains to the survivor and the merge is
    still exact."""
    manifest = make_manifest(study_npz, 4)
    metrics = RunMetrics()
    with worker_pool(tmp_path, count=2) as (urls, servers):
        victim = servers[0]
        killed = threading.Event()

        def kill_after_first(index, report):
            if not killed.is_set():
                killed.set()
                victim.shutdown()
                victim.server_close()

        HttpTransport(urls, retries=6, timeout=5.0).dispatch(
            manifest,
            tmp_path / "shards",
            metrics=metrics,
            on_report=kill_after_first,
        )
    assert killed.is_set()
    assert_same_as_unsharded(
        manifest, tmp_path / "shards", tmp_path, unsharded
    )
    counters = metrics.as_dict()["counters"]
    assert counters["shard.completed"] == 4


# ----------------------------------------------------------------------
# A worker *process* crashing mid-shard (the transport.worker site)
# ----------------------------------------------------------------------
def spawn_worker(workdir, env=None):
    """A real ``repro shard worker`` subprocess on an ephemeral port."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "shard",
            "worker",
            "--workdir",
            str(workdir),
            "--port",
            "0",
            "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env if env is not None else os.environ.copy(),
    )
    banner = proc.stdout.readline()
    assert banner.startswith("listening on http://"), banner
    url = banner.split()[2]
    return proc, url


def test_worker_process_crash_mid_shard_is_reassigned(
    study_npz, unsharded, tmp_path
):
    """The acceptance scenario: two real worker processes, one armed
    (via the env hook) to ``os._exit`` mid-shard with the single-flight
    lock held. The coordinator marks it dead, reassigns to the
    survivor, and the merged checkpoint still equals the unsharded
    run's."""
    manifest = make_manifest(study_npz, 3)
    crash_env = os.environ.copy()
    crash_env.pop(faults.ENV_VAR, None)
    crash_env[faults.ENV_VAR] = FaultPlan(
        [FaultSpec("transport.worker", "crash", hit=1)], seed=0
    ).to_json()
    survivor_env = os.environ.copy()
    survivor_env.pop(faults.ENV_VAR, None)
    victim, victim_url = spawn_worker(tmp_path / "victim", env=crash_env)
    survivor, survivor_url = spawn_worker(
        tmp_path / "survivor", env=survivor_env
    )
    metrics = RunMetrics()
    try:
        HttpTransport(
            [victim_url, survivor_url], retries=6, timeout=10.0
        ).dispatch(manifest, tmp_path / "shards", metrics=metrics)
    finally:
        for proc in (victim, survivor):
            if proc.poll() is None:
                proc.terminate()
        survivor.wait(timeout=10)
        victim.wait(timeout=10)
    assert victim.returncode == faults.CRASH_EXIT_CODE
    counters = metrics.as_dict()["counters"]
    assert counters["transport.worker_deaths"] == 1
    assert counters["transport.reassignments"] >= 1
    assert counters["shard.completed"] == 3
    assert_same_as_unsharded(
        manifest, tmp_path / "shards", tmp_path, unsharded
    )


# ----------------------------------------------------------------------
# Refusals: foreign plans, corrupt downloads, unplaceable shards
# ----------------------------------------------------------------------
def post_manifest(url, index, document):
    request = urllib.request.Request(
        f"{url}/shards/{index}",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, response.read()


def test_worker_refuses_foreign_and_tampered_plans(study_npz, tmp_path):
    manifest = make_manifest(study_npz, 2)
    with worker_pool(tmp_path, count=1) as (urls, servers):
        url = urls[0]
        # Tampered: body edited after the digest was computed.
        tampered = manifest.document()
        tampered["model_name"] = "wifi"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_manifest(url, 0, tampered)
        assert excinfo.value.code == 400
        assert "digest" in excinfo.value.read().decode()
        # Foreign: not a manifest document at all.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_manifest(url, 0, {"kind": "something-else"})
        assert excinfo.value.code == 400
        # Out-of-range shard index for a valid plan.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_manifest(url, 7, manifest.document())
        assert excinfo.value.code == 400
        assert servers[0].metrics.counter("worker.refused") == 3
        # And a checkpoint download for a shard never run here: 404.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{url}/checkpoints/{manifest.digest()}/0", timeout=10.0
            )
        assert excinfo.value.code == 404


def test_corrupt_download_never_lands(study_npz, tmp_path):
    """Every downloaded checkpoint corrupts in flight: the checksum
    rejects each one and the dispatch fails typed — the shard dir never
    holds wrong bytes."""
    manifest = make_manifest(study_npz, 1)
    metrics = RunMetrics()
    faults.install(
        FaultPlan(
            [FaultSpec("transport.collect", "corrupt", hit=None)], seed=0
        )
    )
    shard_dir = tmp_path / "shards"
    with worker_pool(tmp_path, count=1) as (urls, _servers):
        with pytest.raises(TransportError):
            HttpTransport(urls, retries=2).dispatch(
                manifest, shard_dir, metrics=metrics
            )
    assert not shard_checkpoint_path(shard_dir, 0).exists()
    counters = metrics.as_dict()["counters"]
    assert counters["transport.corrupt_checkpoints"] == 3  # 1 + 2 retries


def test_dead_pool_raises_transport_error(study_npz, tmp_path):
    manifest = make_manifest(study_npz, 2)
    transport = HttpTransport([DEAD_URL], retries=2, timeout=2.0)
    with pytest.raises(TransportError) as excinfo:
        transport.dispatch(manifest, tmp_path / "shards")
    assert excinfo.value.indices == [0, 1]
    assert "dead" in str(excinfo.value)


def test_cli_exit_8_when_pool_unreachable(study_npz, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    make_manifest(study_npz, 2).save(plan_path)
    code = main(
        [
            "shard",
            "run",
            str(plan_path),
            "--workers",
            DEAD_URL,
            "--quiet",
        ]
    )
    assert code == EXIT_TRANSPORT_FAILED == 8
    err = capsys.readouterr().err
    assert "could not be placed" in err
