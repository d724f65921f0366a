"""The coordinator: assign shards to an HTTP worker pool and collect
verified checkpoints back.

One :class:`ShardCoordinator` drives one dispatch: a thread per worker
URL pulls shard indices off a shared queue, POSTs the manifest document
to ``POST /shards/{k}``, downloads the finished checkpoint from
``GET /checkpoints/{digest}/{k}`` and lands it — verified — at
:func:`~repro.shard.execute.shard_checkpoint_path` under the local
shard dir, where :func:`~repro.shard.merge.merge_shard_checkpoints`
expects it. The main thread owns the failure policy: the same
:class:`~repro.parallel.RetryScheduler` the local pool uses (bounded
retries, exponential backoff, quarantine), so a failed attempt is
re-queued for *any* worker — reassignment and retry are one mechanism.

Verification is belt and braces, and none of it trusts the network:

* the downloaded bytes must hash to the checksum the worker advertised
  (its strong ETag **and** the POST response's ``checksum`` field) —
  a mismatch (the ``transport.collect`` chaos site) never touches the
  shard dir;
* the landed file must load as a checkpoint and carry the exact
  :func:`~repro.shard.plan.shard_header` of ``(plan, k)`` — a foreign
  or stale checkpoint is deleted on the spot.

A worker whose connection fails ``dead_after`` times in a row is
marked dead; its in-flight shard re-queues to the survivors
(``transport.reassignments``). When every worker is dead — or a shard
exhausts its budget — the dispatch raises
:class:`~repro.errors.TransportError` naming the unplaced shards (CLI
exit 8). The merge is never attempted over a partial set, so chaos
here costs wall time, never correctness.
"""

from __future__ import annotations

import json
import queue
import threading
import urllib.error
import urllib.request
from http.client import HTTPException
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import faults
from repro.durable import content_checksum, write_atomic
from repro.errors import ShardError, TaskFailure, TransportError
from repro.metrics import RunMetrics
from repro.parallel import RetryScheduler
from repro.shard.execute import (
    shard_checkpoint_path,
    shard_is_complete,
    verify_shard_checkpoint,
)
from repro.shard.plan import ShardManifest

PathLike = Union[str, Path]


class _ConnectionFailure(Exception):
    """The worker could not be reached (or stopped answering mid-
    request) — counts toward marking it dead."""

    def __init__(self, kind: str, cause: str) -> None:
        self.kind = kind
        self.cause = cause
        super().__init__(cause)


class _AttemptFailure(Exception):
    """The worker answered, but the attempt still failed (refused
    manifest, failed checksum, unloadable checkpoint) — retryable, but
    not evidence the worker is down."""


class ShardCoordinator:
    """Run one plan's shards across ``worker_urls``, with reassignment."""

    def __init__(
        self,
        manifest: ShardManifest,
        shard_dir: PathLike,
        worker_urls: Sequence[str],
        *,
        retries: int = 2,
        backoff: float = 0.05,
        timeout: Optional[float] = 30.0,
        dead_after: int = 2,
        checkpoint_every: int = 0,
        manifest_path: Optional[PathLike] = None,
    ) -> None:
        if not worker_urls:
            raise ValueError("ShardCoordinator needs at least one worker URL")
        if dead_after < 1:
            raise ValueError(f"dead_after must be >= 1: {dead_after}")
        self.manifest = manifest
        self.shard_dir = Path(shard_dir)
        self.worker_urls = [str(u).rstrip("/") for u in worker_urls]
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.dead_after = dead_after
        self.checkpoint_every = checkpoint_every
        self.manifest_path = (
            str(manifest_path) if manifest_path is not None else None
        )
        # Shipped on every POST; built once — the manifest is immutable.
        self._body = json.dumps(manifest.document()).encode("utf-8")
        self._digest = manifest.digest()

    # ------------------------------------------------------------------
    # The dispatch loop (main thread)
    # ------------------------------------------------------------------
    def run(
        self,
        indices: Optional[Sequence[int]] = None,
        metrics: Optional[RunMetrics] = None,
        on_report=None,
    ) -> List[Dict[str, Any]]:
        """Place every shard (or ``indices``); return per-shard reports.

        Raises :class:`~repro.errors.TransportError` when any shard
        remains unplaced after retries and reassignment.
        """
        metrics = metrics if metrics is not None else RunMetrics()
        if indices is None:
            indices = list(range(self.manifest.n_shards))
        else:
            indices = list(indices)
        for index in indices:
            self.manifest.shard_users(index)  # range-check before any work
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        results: Dict[int, Any] = {}
        pending = set()
        tasks: "queue.Queue" = queue.Queue()
        done: "queue.Queue" = queue.Queue()
        for index in indices:
            # Idempotent re-runs skip locally-complete shards without a
            # byte on the wire — same rule as the local executor.
            if shard_is_complete(self.manifest, self.shard_dir, index):
                metrics.count("shard.skipped")
                report = self._skip_report(index)
                results[index] = report
                if on_report is not None:
                    on_report(index, report)
            else:
                pending.add(index)
                tasks.put(index)
        if not pending:
            return [results[i] for i in indices]
        scheduler = RetryScheduler(
            retries=self.retries,
            backoff=self.backoff,
            quarantine=True,
            metrics=metrics,
        )
        alive = set(self.worker_urls)
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(url, tasks, done, metrics),
                daemon=True,
            )
            for url in self.worker_urls
        ]
        with metrics.stage("shard.execute"):
            for thread in threads:
                thread.start()
            try:
                while pending and alive:
                    kind, url, index, payload = done.get()
                    if kind == "dead":
                        alive.discard(url)
                        metrics.count("transport.worker_deaths")
                        kind, payload = "fail", payload
                    if kind == "ok":
                        report = payload["report"]
                        metrics.absorb(report.get("metrics", {}))
                        metrics.count("shard.completed")
                        results[index] = report
                        pending.discard(index)
                        if on_report is not None:
                            on_report(index, report)
                        continue
                    failkind, cause = payload
                    sealed = scheduler.fail(
                        index, f"shard {index} via {url}", failkind, cause
                    )
                    if sealed is None:
                        # A retry is owed; any surviving worker may take
                        # it — reassignment and retry are one requeue.
                        metrics.count("transport.reassignments")
                        tasks.put(index)
                        continue
                    results[index] = sealed
                    pending.discard(index)
                    metrics.count("shard.failed")
                    if on_report is not None:
                        on_report(index, sealed)
            finally:
                for _ in threads:
                    tasks.put(None)
                for thread in threads:
                    thread.join(timeout=10.0)
        failed = sorted(
            i for i, r in results.items() if isinstance(r, TaskFailure)
        )
        unplaced = sorted(set(pending) | set(failed))
        if unplaced:
            if not alive:
                reason = (
                    f"all {len(self.worker_urls)} worker(s) are dead "
                    f"({', '.join(self.worker_urls)})"
                )
            else:
                detail = "; ".join(
                    f"shard {i}: {results[i].kind} ({results[i].cause})"
                    for i in failed
                )
                reason = f"retry budget exhausted — {detail}"
            raise TransportError(
                self.manifest_path or f"digest {self._digest}",
                unplaced,
                reason,
            )
        return [results[i] for i in indices]

    def _skip_report(self, index: int) -> Dict[str, Any]:
        return {
            "index": int(index),
            "users": len(self.manifest.shard_users(index)),
            "complete": True,
            "skipped": True,
            "checkpoint": str(shard_checkpoint_path(self.shard_dir, index)),
            "metrics": {},
        }

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _worker_loop(
        self,
        url: str,
        tasks: "queue.Queue",
        done: "queue.Queue",
        metrics: RunMetrics,
    ) -> None:
        consecutive = 0
        while True:
            index = tasks.get()
            if index is None:
                return
            try:
                payload = self._process(url, index, metrics)
            except _ConnectionFailure as exc:
                consecutive += 1
                failure = (exc.kind, f"worker {url}: {exc.cause}")
                if consecutive >= self.dead_after:
                    done.put(("dead", url, index, failure))
                    return
                done.put(("fail", url, index, failure))
            except Exception as exc:  # _AttemptFailure and bugs alike
                consecutive = 0
                done.put(("fail", url, index, ("error", repr(exc))))
            else:
                consecutive = 0
                done.put(("ok", url, index, payload))

    def _process(
        self, url: str, index: int, metrics: RunMetrics
    ) -> Dict[str, Any]:
        """One attempt: POST the manifest, download + verify + land."""
        spec = faults.fire("transport.dispatch")
        if spec is not None and spec.action == "drop":
            # The dispatch vanished on the wire: no request was made,
            # no response will come. To the scheduler it is simply a
            # failed attempt.
            metrics.count("transport.dropped_dispatches")
            raise _AttemptFailure(
                f"dispatch of shard {index} dropped (injected)"
            )
        metrics.count("transport.dispatches")
        metrics.count("transport.bytes_up", len(self._body))
        with metrics.stage("transport.dispatch"):
            response = self._request(
                urllib.request.Request(
                    f"{url}/shards/{index}",
                    data=self._body,
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
            )
        try:
            answer = json.loads(response[0])
        except ValueError as exc:
            raise _AttemptFailure(
                f"unparseable worker response for shard {index}: {exc!r}"
            ) from exc
        expected = answer.get("checkpoint", {}).get("checksum")
        with metrics.stage("transport.download"):
            data, headers = self._request(
                urllib.request.Request(
                    f"{url}/checkpoints/{self._digest}/{index}"
                )
            )
        spec = faults.fire("transport.collect")
        if spec is not None and spec.action == "corrupt":
            # Bit-rot in flight: the checksum below must catch it.
            data = b"\x00" * min(len(data), 64) + data[64:]
        metrics.count("transport.bytes_down", len(data))
        checksum = content_checksum(data)
        etag = (headers.get("ETag") or "").strip()
        if checksum != expected or (etag and etag != f'"{checksum}"'):
            metrics.count("transport.corrupt_checkpoints")
            raise _AttemptFailure(
                f"checkpoint for shard {index} failed checksum "
                f"verification in flight (got {checksum}, worker "
                f"advertised {expected}, ETag {etag or 'absent'})"
            )
        path = write_atomic(shard_checkpoint_path(self.shard_dir, index), data)
        try:
            verify_shard_checkpoint(self.manifest, index, path)
        except ShardError as exc:
            # Checksummed transfer of the wrong thing (worker bug, plan
            # collision): never leave it where the merge will look.
            try:
                path.unlink()
            except OSError:
                pass
            raise _AttemptFailure(
                f"downloaded checkpoint for shard {index} failed "
                f"verification: {exc}"
            ) from exc
        return {"report": answer.get("report", {})}

    def _request(self, request: "urllib.request.Request"):
        """One HTTP exchange, errors classified for the failure policy."""
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read(), response.headers
        except urllib.error.HTTPError as exc:
            # The worker answered: not a death, but the attempt failed.
            body = ""
            try:
                body = exc.read().decode("utf-8", "replace").strip()
            except OSError:
                pass
            raise _AttemptFailure(
                f"worker answered {exc.code} for {request.full_url}"
                + (f": {body}" if body else "")
            ) from exc
        except (TimeoutError, OSError, urllib.error.URLError, HTTPException) as exc:
            kind = (
                "timeout"
                if isinstance(exc, TimeoutError)
                or "timed out" in str(exc).lower()
                else "crash"
            )
            raise _ConnectionFailure(
                kind, f"{request.full_url} unreachable ({exc!r})"
            ) from exc
