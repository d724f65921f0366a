"""The transport seam: *where* a plan's shards execute.

PR 7 split sharded ingestion into plan → execute → merge with the
manifest file and the shard-checkpoint directory as the only shared
state. This module abstracts the remaining coupling — the execute
phase's assumption that every shard runs on this box — behind one
runtime-checkable protocol:

* :class:`ShardTransport` — ``dispatch(manifest, shard_dir, ...)``
  runs shards *somewhere* and lands their checkpoints in ``shard_dir``
  where :func:`~repro.shard.merge.merge_shard_checkpoints` will look.
* :class:`LocalTransport` — today's path, verbatim: one
  :class:`~repro.parallel.TaskPool` process per shard via
  :func:`~repro.shard.execute.run_all_shards`. Bit-identical to
  calling ``run_all_shards`` directly, because it *is* that call.
* :class:`HttpTransport` — the multi-host path: a
  :class:`~repro.shard.coordinator.ShardCoordinator` POSTs the
  manifest to a pool of ``repro shard worker`` processes, downloads
  each finished checkpoint, verifies it (content checksum against the
  worker's strong ETag, then shard-header binding) and lands it in
  ``shard_dir``.

The CLI's ``--workers`` value picks the transport on its own
(:func:`parse_worker_spec`, then :func:`make_transport`): a process
count can only mean the local pool, a URL list only the worker pool.

The merge is transport-oblivious by construction: whichever transport
ran the shards, the same verified checkpoints sit in the same
directory, so the merged checkpoint — and its
:class:`~repro.core.readout.ReadoutProvenance`, store key and ETag —
equals the unsharded run's.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.metrics import RunMetrics
from repro.shard.coordinator import ShardCoordinator
from repro.shard.execute import run_all_shards, shard_pool_workers
from repro.shard.plan import ShardManifest

PathLike = Union[str, Path]


@runtime_checkable
class ShardTransport(Protocol):
    """Anything that can execute a plan's shards into a shard dir.

    ``dispatch`` must be **idempotent** (complete shards are skipped,
    partial ones resumed), must land every checkpoint at
    :func:`~repro.shard.execute.shard_checkpoint_path` under
    ``shard_dir``, and must raise a typed error
    (:class:`~repro.errors.ShardError` or its
    :class:`~repro.errors.TransportError` subclass) when any shard
    could not be placed — never return with a silent gap for the
    merge to trip on.
    """

    #: Short transport name (``"local"``, ``"http"``).
    name: str

    def dispatch(
        self,
        manifest: ShardManifest,
        shard_dir: PathLike,
        *,
        indices: Optional[Sequence[int]] = None,
        metrics: Optional[RunMetrics] = None,
        on_report=None,
    ) -> List[Dict[str, Any]]:
        """Run shards (all, or ``indices``); return per-shard reports."""
        ...


class LocalTransport:
    """The in-process transport: shards fan out over a local pool.

    A construction-time capture of :func:`~repro.shard.execute.
    run_all_shards`'s keyword surface; ``dispatch`` delegates verbatim,
    so outputs — checkpoints, reports, metrics, error behaviour — are
    bit-identical to the pre-transport code path. ``retries`` and
    ``task_timeout`` apply per shard, in that pool: each shard's own
    ingest runs in process.
    """

    name = "local"

    def __init__(
        self,
        *,
        shard_workers: Optional[int] = None,
        checkpoint_every: int = 0,
        retries: int = 0,
        task_timeout: Optional[float] = None,
        quarantine: bool = False,
    ) -> None:
        self.shard_workers = shard_workers
        self.checkpoint_every = checkpoint_every
        self.retries = retries
        self.task_timeout = task_timeout
        self.quarantine = quarantine

    def dispatch(
        self,
        manifest: ShardManifest,
        shard_dir: PathLike,
        *,
        indices: Optional[Sequence[int]] = None,
        metrics: Optional[RunMetrics] = None,
        on_report=None,
    ) -> List[Dict[str, Any]]:
        return run_all_shards(
            manifest,
            shard_dir,
            indices=list(indices) if indices is not None else None,
            shard_workers=self.shard_workers,
            checkpoint_every=self.checkpoint_every,
            metrics=metrics,
            retries=self.retries,
            task_timeout=self.task_timeout,
            quarantine=self.quarantine,
            on_report=on_report,
        )


class HttpTransport:
    """The remote transport: shards run on ``repro shard worker`` pools.

    ``worker_urls`` is the worker pool (``["http://host:port", ...]``).
    Each ``dispatch`` builds a fresh
    :class:`~repro.shard.coordinator.ShardCoordinator` over the pool:
    one coordinator thread per worker pulls shard indices off a shared
    queue, POSTs the manifest, downloads + verifies the finished
    checkpoint and lands it in ``shard_dir``. Failures follow the
    :class:`~repro.parallel.RetryScheduler` policy (bounded retries
    with backoff); a worker that stops answering is marked dead and its
    shards are reassigned to the survivors. When shards remain
    unplaced after all that, dispatch raises
    :class:`~repro.errors.TransportError` (CLI exit 8) — the merge
    never sees a partial set.
    """

    name = "http"

    def __init__(
        self,
        worker_urls: Sequence[str],
        *,
        retries: int = 2,
        backoff: float = 0.05,
        timeout: Optional[float] = 30.0,
        dead_after: int = 2,
        checkpoint_every: int = 0,
        manifest_path: Optional[PathLike] = None,
    ) -> None:
        urls = [str(u).rstrip("/") for u in worker_urls if str(u).strip()]
        if not urls:
            raise ValueError("HttpTransport needs at least one worker URL")
        self.worker_urls = urls
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.dead_after = dead_after
        self.checkpoint_every = checkpoint_every
        self.manifest_path = manifest_path

    def dispatch(
        self,
        manifest: ShardManifest,
        shard_dir: PathLike,
        *,
        indices: Optional[Sequence[int]] = None,
        metrics: Optional[RunMetrics] = None,
        on_report=None,
    ) -> List[Dict[str, Any]]:
        coordinator = ShardCoordinator(
            manifest,
            shard_dir,
            self.worker_urls,
            retries=self.retries,
            backoff=self.backoff,
            timeout=self.timeout,
            dead_after=self.dead_after,
            checkpoint_every=self.checkpoint_every,
            manifest_path=self.manifest_path,
        )
        return coordinator.run(
            indices=indices, metrics=metrics, on_report=on_report
        )


def parse_worker_spec(value: Union[str, int, None]) -> Union[int, List[str]]:
    """Interpret the CLI's polymorphic ``--workers`` value.

    A value containing ``://`` is a comma-separated worker-URL list
    (the ``repro shard worker`` pool); anything else is the familiar
    integer process count (``0`` = one per CPU). Raises ``ValueError``
    on a malformed or negative count; the CLI reports it as a usage
    error.
    """
    if value is None:
        return 1
    text = str(value).strip()
    if "://" in text:
        return [u.strip().rstrip("/") for u in text.split(",") if u.strip()]
    count = int(text)
    if count < 0:
        raise ValueError(f"worker count must be >= 0: {count}")
    return count


def make_transport(
    workers: Union[int, List[str]],
    *,
    checkpoint_every: int = 0,
    retries: int = 0,
    task_timeout: Optional[float] = None,
    quarantine: bool = False,
    timeout: Optional[float] = 30.0,
    manifest_path: Optional[PathLike] = None,
) -> ShardTransport:
    """The transport a :func:`parse_worker_spec` value selects.

    A process count is the local pool (:class:`LocalTransport`), a URL
    list the ``repro shard worker`` pool (:class:`HttpTransport`);
    anything else raises ``ValueError``. Only a local pool of two or
    more processes takes a ``task_timeout``, and only a local pool
    quarantines poison users: a worker runs its shards without it, so
    ``quarantine`` with a URL list raises ``ValueError`` too. The http
    transport floors ``retries`` at 2: reassignment after a worker
    death *is* a retry, so a zero budget would turn every transient
    network blip into exit 8.
    """
    if isinstance(workers, int):
        shard_pool_workers(workers, task_timeout)
        return LocalTransport(
            shard_workers=workers,
            checkpoint_every=checkpoint_every,
            retries=retries,
            task_timeout=task_timeout,
            quarantine=quarantine,
        )
    if not isinstance(workers, list):
        raise ValueError(
            f"workers must be a process count or a worker-URL list: "
            f"{workers!r}"
        )
    if task_timeout is not None:
        raise ValueError(
            "--task-timeout times out local shard workers; a worker-URL "
            "pool marks a worker that stops answering dead instead"
        )
    if quarantine:
        raise ValueError(
            "--quarantine quarantines poison users in local shard "
            "workers; a worker-URL pool runs shards without it (to "
            "quarantine malformed CSV rows, plan with `repro shard plan "
            "--quarantine`)"
        )
    return HttpTransport(
        workers,
        retries=max(retries, 2),
        timeout=timeout,
        checkpoint_every=checkpoint_every,
        manifest_path=manifest_path,
    )
