"""The executors: run each shard of a plan to its own checkpoint.

One shard's execution is an ordinary :class:`~repro.stream.ingest.
StreamIngestor` run over a :class:`~repro.shard.plan.ShardSource`, with
its checkpoint stamped by the shard header — so everything the
streaming stack already proves (bit-identical accounting for any chunk
size, checkpoint/resume with no recomputation, row and user
quarantine) holds per shard for free. Execution is **idempotent**:
a shard whose checkpoint is already complete is skipped, a shard with a
partial checkpoint resumes from it, and a fresh shard starts clean —
`repro shard run` after any number of kills converges to N complete
shard checkpoints.

:func:`run_all_shards` fans the shards of one box over the hardened
:class:`~repro.parallel.TaskPool` (one process per shard, the
coordinator/probe split of measure-x scaled down to one host). Worker
metrics ride back on each report and are absorbed into the parent's
:class:`~repro.metrics.RunMetrics` as slots settle, so ``stream.*``
counters and the ``shard_packets_per_s`` rate describe the whole run.
The pool is where a sharded run's worker isolation lives: a crashed
shard worker is rebuilt, a shard silent for ``task_timeout`` seconds is
killed, and either is retried ``retries`` times. A shard that fails
even after the pool's retries surfaces as a typed
:class:`~repro.errors.ShardError` naming the shards to re-run — never
a silent gap for the merger to trip on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.durable import previous_path
from repro.errors import ShardError, StreamError, TaskFailure
from repro.metrics import RunMetrics
from repro.parallel import TaskPool, resolve_workers
from repro.shard.plan import (
    ShardManifest,
    ShardSource,
    build_source,
    shard_header,
)
from repro.stream.checkpoint import StreamCheckpoint
from repro.stream.ingest import StreamIngestor

PathLike = Union[str, Path]


def default_shard_dir(manifest_path: PathLike) -> Path:
    """Where a plan's shard checkpoints live by default:
    ``<manifest>.shards/`` next to the manifest file."""
    manifest_path = Path(manifest_path)
    return manifest_path.with_name(manifest_path.name + ".shards")


def shard_checkpoint_path(shard_dir: PathLike, index: int) -> Path:
    """One shard's checkpoint file inside the shard directory."""
    return Path(shard_dir) / f"shard-{int(index)}.ckpt.npz"


def shard_is_complete(
    manifest: ShardManifest, shard_dir: PathLike, index: int
) -> bool:
    """Is this shard's checkpoint present, bound to the plan, and done?

    Used for idempotent skip on re-runs. Any defect — missing file,
    torn write without a usable fallback, wrong plan, users not done —
    answers ``False`` (the shard needs running), except a checkpoint
    bound to a *different* plan, which raises: running over it would
    destroy someone else's state.
    """
    path = shard_checkpoint_path(shard_dir, index)
    try:
        checkpoint = StreamCheckpoint.load(path)
    except StreamError:
        return False
    _verify_binding(checkpoint, manifest, index, path)
    return all(user.status == "done" for user in checkpoint.users)


def verify_shard_checkpoint(
    manifest: ShardManifest, index: int, path: PathLike
) -> StreamCheckpoint:
    """Load a shard checkpoint and prove it binds to ``(plan, index)``.

    The transport collect path runs this over every downloaded
    checkpoint before it may sit where the merge will look: a torn or
    truncated file fails :meth:`StreamCheckpoint.load`, and a checkpoint
    from another plan or shard fails the header check — both raise
    typed errors instead of letting wrong bytes near a merge.
    """
    path = Path(path)
    checkpoint = StreamCheckpoint.load(path)
    _verify_binding(checkpoint, manifest, index, path)
    return checkpoint


def _verify_binding(
    checkpoint: StreamCheckpoint,
    manifest: ShardManifest,
    index: int,
    path: Path,
) -> None:
    """A loadable checkpoint at a shard path must belong to (plan, k)."""
    expected = shard_header(manifest, index)
    if checkpoint.shard != expected:
        raise ShardError(
            f"checkpoint {path} belongs to a different plan or shard "
            f"(checkpoint header {checkpoint.shard!r}, expected "
            f"{expected!r}); point --shard-dir somewhere else or "
            "remove the stale file"
        )


def run_shard(
    manifest: ShardManifest,
    index: int,
    shard_dir: PathLike,
    *,
    source=None,
    checkpoint_every: int = 0,
    metrics: Optional[RunMetrics] = None,
    quarantine: bool = False,
    max_chunks: Optional[int] = None,
) -> Dict[str, Any]:
    """Execute one shard to its checkpoint; return a progress report.

    Resumes from an existing checkpoint for this (plan, shard) and
    skips entirely when it is already complete. ``source`` lets a
    caller that already built the parent source share it; by default
    the manifest's spec rebuilds it (the executor-in-a-worker path).
    The report is JSON-plain: shard index, user/packet tallies, a
    ``complete`` flag and the worker's metrics payload for the parent
    to absorb.
    """
    metrics = metrics if metrics is not None else RunMetrics()
    shard_dir = Path(shard_dir)
    shard_dir.mkdir(parents=True, exist_ok=True)
    path = shard_checkpoint_path(shard_dir, index)
    users = manifest.shard_users(index)
    if shard_is_complete(manifest, shard_dir, index):
        metrics.count("shard.skipped")
        return {
            "index": int(index),
            "users": len(users),
            "complete": True,
            "skipped": True,
            "checkpoint": str(path),
            "metrics": metrics.as_dict(),
        }
    if source is None:
        with metrics.stage("shard.source"):
            source = build_source(manifest.source_spec)
    shard_source = ShardSource(source, manifest, index)
    # Resume whenever any generation of this shard's checkpoint exists;
    # a crash between save()'s two renames leaves only the .prev
    # rotation, and resuming from it beats starting over.
    resume = path.exists() or previous_path(path).exists()
    ingestor = StreamIngestor(
        shard_source,
        model=manifest.model(),
        policy=manifest.policy(),
        checkpoint_path=path,
        checkpoint_every=checkpoint_every,
        metrics=metrics,
        quarantine=quarantine,
        cadence=manifest.cadence,
        shard_info=shard_header(manifest, index),
    )
    result = ingestor.run(resume=resume, max_chunks=max_chunks)
    metrics.count("shard.users", len(users))
    return {
        "index": int(index),
        "users": len(users),
        "complete": result is not None,
        "skipped": False,
        "checkpoint": str(path),
        "failures": (
            sorted(result.failures) if result is not None else []
        ),
        "metrics": metrics.as_dict(),
    }


class ShardExecTask:
    """Picklable one-shard executor for :class:`~repro.parallel.TaskPool`.

    The manifest rides on the task (shipped once per worker); each item
    is just a shard index. Every worker rebuilds the parent source from
    the manifest spec and runs its shard with a private
    :class:`~repro.metrics.RunMetrics`, returned in the report for the
    parent to absorb.
    """

    def __init__(
        self,
        manifest: ShardManifest,
        shard_dir: str,
        *,
        checkpoint_every: int = 0,
        quarantine: bool = False,
    ) -> None:
        self.manifest = manifest
        self.shard_dir = str(shard_dir)
        self.checkpoint_every = checkpoint_every
        self.quarantine = quarantine

    def __call__(self, index: int) -> Dict[str, Any]:
        return run_shard(
            self.manifest,
            index,
            self.shard_dir,
            checkpoint_every=self.checkpoint_every,
            quarantine=self.quarantine,
        )


def shard_pool_workers(
    shard_workers: Optional[int], task_timeout: Optional[float] = None
) -> int:
    """Resolve the shard pool's process count (``None``/``0``: one per CPU).

    A pool of one process runs its shards in process, where nothing can
    time them out, so a ``task_timeout`` there raises ``ValueError``
    instead of being silently ignored.
    """
    workers = resolve_workers(shard_workers)
    if task_timeout is not None and workers < 2:
        raise ValueError(
            "a task timeout needs a shard pool of at least 2 worker "
            f"processes, got {workers}: a shard run in process cannot be "
            "timed out"
        )
    return workers


def run_all_shards(
    manifest: ShardManifest,
    shard_dir: PathLike,
    *,
    indices: Optional[List[int]] = None,
    shard_workers: Optional[int] = None,
    checkpoint_every: int = 0,
    metrics: Optional[RunMetrics] = None,
    retries: int = 0,
    task_timeout: Optional[float] = None,
    quarantine: bool = False,
    on_report=None,
) -> List[Dict[str, Any]]:
    """Execute every shard (or ``indices``) of the plan on this box.

    Shards fan out over one :class:`~repro.parallel.TaskPool` process
    each (``shard_workers`` caps how many run at once; default one per
    CPU). ``task_timeout`` is a per-shard hang timeout: the pool kills
    a shard worker that has not answered within it, then retries the
    shard up to ``retries`` times. It needs ``shard_workers`` of 2 or
    more (:func:`shard_pool_workers`). Each worker's metrics payload is
    absorbed into ``metrics`` as its slot settles. Raises
    :class:`~repro.errors.ShardError` naming the failed shards when any
    shard neither completed nor checkpointed cleanly — rerunning the
    same command resumes exactly those.
    """
    metrics = metrics if metrics is not None else RunMetrics()
    shard_dir = Path(shard_dir)
    if indices is None:
        indices = list(range(manifest.n_shards))
    for index in indices:
        manifest.shard_users(index)  # range-check before any work
    task = ShardExecTask(
        manifest,
        str(shard_dir),
        checkpoint_every=checkpoint_every,
        quarantine=quarantine,
    )
    # At most one process per shard, but a timeout keeps a pool even for
    # a lone shard: only a shard worker process can be timed out.
    workers = min(
        shard_pool_workers(shard_workers, task_timeout),
        max(len(indices), 1 if task_timeout is None else 2),
    )

    def _settle(slot: int, result) -> None:
        if isinstance(result, TaskFailure):
            metrics.count("shard.failed")
        else:
            metrics.absorb(result.get("metrics", {}))
            metrics.count("shard.completed")
        if on_report is not None:
            on_report(indices[slot], result)

    with metrics.stage("shard.execute"):
        with TaskPool(
            task,
            workers,
            retries=retries,
            task_timeout=task_timeout,
            quarantine=True,
            metrics=metrics,
        ) as pool:
            results = pool.map(indices, on_result=_settle)
    failed = {
        indices[slot]: result
        for slot, result in enumerate(results)
        if isinstance(result, TaskFailure)
    }
    if failed:
        detail = "; ".join(
            f"shard {idx}: {failure.kind} ({failure.cause})"
            for idx, failure in sorted(failed.items())
        )
        raise ShardError(
            f"{len(failed)} shard(s) failed — {detail}. Completed "
            "shards kept their checkpoints; rerun `repro shard run` "
            "to resume only the failed ones."
        )
    return results
