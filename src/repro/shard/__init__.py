"""Shard-parallel ingestion: plan → execute → merge.

The streaming stack ingests one study as one sequential run; this
package partitions the study **by user** across independent executors
and folds their checkpoints back into one readout, bit-identical to
the unsharded run. Three layers, each usable on its own:

* **plan** (:class:`ShardManifest`): a deterministic, persisted
  partition of the study's users (stable hash → shard), pinned to the
  source signature, radio model and tail policy.
* **execute** (:func:`run_shard` / :func:`run_all_shards`): each shard
  is an ordinary :class:`~repro.stream.ingest.StreamIngestor` run over
  a :class:`ShardSource`, with its own checkpoint/resume, quarantine
  and metrics; idempotent re-runs skip complete shards and resume
  partial ones.
* **merge** (:func:`merge_shard_checkpoints` / :func:`merged_readout`):
  reassembles the per-shard checkpoints into one whole-study
  checkpoint in canonical user order — ``array_equal`` totals, and the
  same :class:`~repro.store.keys.StoreKey`/ETag as an unsharded
  ingest, so `repro serve` and the result store are shard-oblivious.
* **transport** (:class:`ShardTransport`): *where* the execute phase
  runs. :class:`LocalTransport` is the in-process pool above,
  verbatim; :class:`HttpTransport` + :class:`ShardCoordinator` drive a
  pool of ``repro shard worker`` HTTP processes
  (:class:`ShardWorkerServer`) with checksummed checkpoint collection,
  retry/reassignment on worker death, and
  :class:`~repro.errors.TransportError` (exit 8) when shards cannot be
  placed — the merge layer cannot tell the transports apart.

Typical use (the CLI surface is ``repro shard plan|run|merge`` and
``repro ingest --shards N``)::

    from repro.shard import ShardManifest, run_all_shards, merge_to_checkpoint
    from repro.stream import NpzStreamSource

    source = NpzStreamSource("study.npz")
    manifest = ShardManifest.plan(source, n_shards=8)
    manifest.save("plan.json")
    run_all_shards(manifest, "plan.json.shards")
    merge_to_checkpoint(manifest, "plan.json.shards", "study.ckpt.npz")

Why the merge is exact: each user's totals are computed independently,
and the only study-wide float fold
(:func:`~repro.core.readout.merge_keyed_totals`) happens at readout
time in user order — which the merge restores from the manifest.
"""

from repro.shard.coordinator import ShardCoordinator
from repro.shard.execute import (
    ShardExecTask,
    default_shard_dir,
    run_all_shards,
    run_shard,
    shard_checkpoint_path,
    shard_is_complete,
    verify_shard_checkpoint,
)
from repro.shard.merge import (
    merge_shard_checkpoints,
    merge_to_checkpoint,
    merged_readout,
)
from repro.shard.plan import (
    MANIFEST_FORMAT,
    ShardManifest,
    ShardSource,
    build_source,
    plan_shards,
    shard_header,
    shard_of,
    shard_signature,
    source_spec,
)
from repro.shard.transport import (
    HttpTransport,
    LocalTransport,
    ShardTransport,
    make_transport,
    parse_worker_spec,
)
from repro.shard.worker import (
    WORKER_ROUTES,
    ShardWorkerServer,
    make_worker_server,
)

__all__ = [
    "MANIFEST_FORMAT",
    "WORKER_ROUTES",
    "HttpTransport",
    "LocalTransport",
    "ShardCoordinator",
    "ShardExecTask",
    "ShardManifest",
    "ShardSource",
    "ShardTransport",
    "ShardWorkerServer",
    "build_source",
    "default_shard_dir",
    "make_transport",
    "make_worker_server",
    "merge_shard_checkpoints",
    "merge_to_checkpoint",
    "merged_readout",
    "parse_worker_spec",
    "plan_shards",
    "run_all_shards",
    "run_shard",
    "shard_checkpoint_path",
    "shard_header",
    "shard_is_complete",
    "shard_of",
    "shard_signature",
    "source_spec",
    "verify_shard_checkpoint",
]
