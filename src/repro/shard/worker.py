"""``repro shard worker``: one host's shard executor over HTTP.

A dependency-free :mod:`http.server` process (the
:mod:`repro.store.server` stack: ``ThreadingHTTPServer``, fixed-length
bodies, ``Connection: close``, strong ETags) that turns a box into a
member of an :class:`~repro.shard.transport.HttpTransport` pool. The
worker holds no plan state between requests — every POST carries the
full manifest document, verified by digest before a byte of work —
so workers are interchangeable and a coordinator can retry any shard
on any of them.

Routes (:data:`WORKER_ROUTES`):

=====================================  ================================
``GET /``                              worker status JSON (workdir,
                                       shards run, format version)
``POST /shards/{k}``                   body = the manifest document;
                                       verify, run shard ``k``, answer
                                       the report + checkpoint checksum
``GET /checkpoints/{digest}/{k}``      the finished checkpoint bytes;
                                       strong ETag = quoted content
                                       checksum
=====================================  ================================

A POSTed manifest that is torn, tampered or from a foreign format is a
``400`` with the :class:`~repro.errors.ShardError` text as the body —
the worker never executes a plan it cannot verify. Concurrent POSTs
for the same ``(plan, shard)`` are **single-flight**
(:func:`repro.durable.single_flight`): one request wins the lock file
and runs, the rest park until the winner finishes (then skip, because
:func:`~repro.shard.execute.run_shard` is idempotent) or break the
lock after :data:`~repro.durable.LOCK_TIMEOUT_S` when the winner
crashed mid-shard.

Checkpoints land under ``<workdir>/<manifest-digest>/`` — plans never
collide, and a re-POST after a coordinator retry resumes or skips via
the ordinary shard checkpoint rules. The ``transport.worker`` fault
site fires before each shard runs, so chaos plans can crash or hang a
worker mid-shard deterministically (the coordinator must then reassign
and still merge exactly).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple, Union
from urllib.parse import urlsplit

from repro import faults
from repro.durable import checksum_file, content_checksum, single_flight
from repro.errors import ShardError, StreamError
from repro.metrics import RunMetrics
from repro.shard.execute import run_shard, shard_checkpoint_path
from repro.shard.plan import ShardManifest
from repro.store.server import HttpResponder, etag_matches

PathLike = Union[str, Path]

#: The worker's route templates (docs/SCALING.md documents these).
WORKER_ROUTES = (
    "/",
    "/shards/{k}",
    "/checkpoints/{digest}/{k}",
)


class ShardWorkerServer(ThreadingHTTPServer):
    """One worker process: a workdir plus the HTTP surface over it."""

    # Join in-flight shard runs on close, same as the store server: a
    # bounded run must finish writing its last response before exit.
    daemon_threads = False

    def __init__(
        self,
        address: Tuple[str, int],
        workdir: PathLike,
        metrics: Optional[RunMetrics] = None,
        quiet: bool = False,
        checkpoint_every: int = 0,
    ) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.quiet = quiet
        self.checkpoint_every = checkpoint_every
        super().__init__(address, _WorkerHandler)

    def shard_dir(self, digest: str) -> Path:
        """Where one plan's checkpoints live in this workdir."""
        return self.workdir / digest


class _WorkerHandler(HttpResponder, BaseHTTPRequestHandler):
    server_version = "repro-shard-worker"
    protocol_version = "HTTP/1.1"
    not_found_counter = "worker.not_found"
    allowed_methods = "GET, POST"

    # ------------------------------------------------------------------
    # GET: status and checkpoint download
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        metrics = self.server.metrics
        metrics.count("worker.requests")
        path = urlsplit(self.path).path
        parts = [p for p in path.split("/") if p]
        if path == "/":
            body = (
                json.dumps(
                    {
                        "kind": "repro-shard-worker",
                        "workdir": str(self.server.workdir),
                        "shards_run": metrics.counter("worker.shards_run"),
                    },
                    indent=2,
                )
                + "\n"
            ).encode("utf-8")
            self._send(200, body, "application/json")
            return
        if len(parts) == 3 and parts[0] == "checkpoints":
            self._serve_checkpoint(parts[1], parts[2])
            return
        self._send_not_found(
            f"no route for {path!r} (GET /, GET /checkpoints/{{digest}}/{{k}}, "
            "POST /shards/{k})"
        )

    def _serve_checkpoint(self, digest: str, index: str) -> None:
        try:
            k = int(index)
        except ValueError:
            self._send_not_found(f"shard index {index!r} is not an integer")
            return
        path = shard_checkpoint_path(self.server.shard_dir(digest), k)
        try:
            data = path.read_bytes()
        except OSError:
            self._send_not_found(
                f"no checkpoint for shard {k} of plan {digest} on this "
                "worker (not yet run, or run elsewhere)"
            )
            return
        # The ETag is the content checksum of the exact bytes served —
        # the coordinator recomputes it over what arrived, so corruption
        # in flight can never land in a shard dir.
        etag = f'"{content_checksum(data)}"'
        if etag_matches(self.headers.get("If-None-Match"), etag):
            self._send_not_modified(etag)
            return
        self.server.metrics.count("worker.bytes_served", len(data))
        self._send(200, data, "application/octet-stream", etag=etag)

    # ------------------------------------------------------------------
    # POST: run one shard
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        metrics = self.server.metrics
        metrics.count("worker.requests")
        path = urlsplit(self.path).path
        parts = [p for p in path.split("/") if p]
        if len(parts) != 2 or parts[0] != "shards":
            self._send_not_found(
                f"no POST route for {path!r} (POST /shards/{{k}})"
            )
            return
        try:
            index = int(parts[1])
        except ValueError:
            self._send_bad_request(
                f"shard index {parts[1]!r} is not an integer"
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            document = json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_bad_request(f"unreadable manifest body: {exc!r}")
            return
        try:
            manifest = ShardManifest.from_document(
                document, origin="uploaded by coordinator"
            )
            manifest.shard_users(index)  # range-check before any work
        except ShardError as exc:
            metrics.count("worker.refused")
            self._send_bad_request(str(exc))
            return
        try:
            report = self._run_single_flight(manifest, index)
        except StreamError as exc:
            # The shard could not run to a clean checkpoint here (bad
            # source path on this host, a poisoned local file, ...).
            # 500 tells the coordinator to retry — possibly elsewhere.
            self._send(
                500,
                (str(exc) + "\n").encode("utf-8"),
                "text/plain; charset=utf-8",
            )
            return
        ckpt = Path(report["checkpoint"])
        payload = {
            "report": report,
            "checkpoint": {
                "checksum": checksum_file(ckpt),
                "bytes": ckpt.stat().st_size,
            },
        }
        metrics.count("worker.shards_run")
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self._send(200, body, "application/json")

    def _run_single_flight(self, manifest: ShardManifest, index: int) -> dict:
        """Run one shard with at most one executor per (plan, shard).

        Losers have nothing to poll for: they park until the winner's
        lock goes (or goes stale), then rerun — which skips instantly
        when the winner completed, resumes its checkpoint when it died.
        """
        shard_dir = self.server.shard_dir(manifest.digest())
        shard_dir.mkdir(parents=True, exist_ok=True)
        metrics = self.server.metrics

        def run() -> dict:
            # The chaos hook: an armed crash/hang here is a worker
            # dying mid-shard, lock held — exactly what coordinator
            # reassignment and stale-lock takeover must absorb.
            faults.fire("transport.worker")
            with metrics.stage("worker.shard"):
                return run_shard(
                    manifest,
                    index,
                    shard_dir,
                    checkpoint_every=self.server.checkpoint_every,
                )

        return single_flight(
            shard_dir / f"shard-{index}.lock",
            run,
            lambda: None,
            on_wait=lambda: metrics.count("worker.single_flight_waits"),
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send_bad_request(self, reason: str) -> None:
        self._send(
            400, (reason + "\n").encode("utf-8"), "text/plain; charset=utf-8"
        )

    def log_message(self, format: str, *args) -> None:
        if not getattr(self.server, "quiet", False):
            super().log_message(format, *args)


def make_worker_server(
    workdir: PathLike,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics: Optional[RunMetrics] = None,
    quiet: bool = False,
    checkpoint_every: int = 0,
) -> ShardWorkerServer:
    """Bind a :class:`ShardWorkerServer` (``port=0`` picks a free port).

    The caller drives it — ``serve_forever()``, or ``handle_request()``
    N times for bounded runs; ``server_address`` reveals the bound
    port. The CLI wrapper (``repro shard worker``) prints a parseable
    ``listening on http://host:port`` banner for smoke scripts that
    start workers on ephemeral ports.
    """
    return ShardWorkerServer(
        (host, port),
        workdir,
        metrics=metrics,
        quiet=quiet,
        checkpoint_every=checkpoint_every,
    )
