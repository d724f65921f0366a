"""``repro serve``: the stdlib HTTP query API over one study's store.

A dependency-free :mod:`http.server` (``ThreadingHTTPServer``, one
thread per connection) serving the totals-tier artefacts of a single
readout — typically a finished ``repro ingest`` checkpoint, so figures
for a multi-month study are answered without a packet in memory.

Routes (:data:`ROUTES`; the serving contract lives in
docs/SERVING.md):

=============================  ========================================
``GET /``                      JSON index: study id, model/policy,
                               endpoints, published live windows
``GET /figures/{fig}``         rendered Fig 1/2/3 text (``fig1|fig2|fig3``)
``GET /tables/table1``         rendered Table 1 text
``GET /headlines``             the totals-tier headline block
``GET /readouts/{study}``      study-wide aggregates as JSON (the study
                               id from ``GET /``; any other id is a 404)
``GET /live/``                 the live-window manifest a ``repro
                               follow`` publisher maintains in this store
``GET /live/{window}/{analysis}``  one live window's artefact
=============================  ========================================

Every artefact response carries a **strong ETag** — the quoted store-
key digest (:meth:`repro.store.keys.StoreKey.etag`). Because the key
digests everything the artefact depends on, a matching
``If-None-Match`` (compared by :func:`etag_matches`) answers ``304 Not
Modified`` from string comparison alone: no store lookup, no blob
read, no render. Cold keys render once (single-flight, see
:class:`repro.store.index.ResultStore`) and every later request is one
index SELECT plus one verified file read. A live window's fingerprint
embeds its fold digest, so its ETag moves exactly when some window
total moves — pollers revalidate for free between seals.

Status codes are deliberately few: ``200`` (artefact served), ``304``
(conditional hit), ``404`` — unknown route, unknown study id, an
artefact this readout cannot produce (a per-packet figure, Table 1
cadence after ``repro ingest --no-cadence``, or any other
:class:`~repro.errors.AnalysisError` a render raises, such as Fig 3 on
a study with no state-labelled energy; the body names the reason), or
a live window not (yet) published, ``405`` for non-GET methods.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import AnalysisError
from repro.metrics import RunMetrics
from repro.store.blobs import media_type
from repro.store.index import ResultStore
from repro.store.keys import StoreKey, store_key_for
from repro.store.render import ANALYSIS_KINDS, render_analysis

#: The served route templates; docs/SERVING.md's endpoint table is
#: checked against this tuple by tests/test_docs_consistency.py.
ROUTES = (
    "/",
    "/figures/{fig}",
    "/tables/table1",
    "/headlines",
    "/readouts/{study}",
    "/live/",
    "/live/{window}/{analysis}",
)

#: The figure names under ``/figures/``.
SERVABLE_FIGURES = ("fig1", "fig2", "fig3")

#: The live-window manifest filename inside a store directory — the
#: file :class:`repro.follow.Follower` rewrites atomically on every
#: publish. (The string is repeated here rather than imported: the
#: store must not depend on the follow subsystem, which builds on it.)
LIVE_MANIFEST_NAME = "live.json"


def etag_matches(header: Optional[str], etag: str) -> bool:
    """Does an ``If-None-Match`` header match one strong ETag?

    Implements the RFC 7232 comparison the conditional-GET paths rely
    on: the header is a comma-separated list of entity tags; ``*``
    matches anything; a ``W/`` weak-validator prefix is ignored
    (``If-None-Match`` uses weak comparison, and our tags are content
    digests either way). Anything else must equal the quoted digest
    *exactly* — a tag for a different artefact never revalidates.
    """
    if header is None:
        return False
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate == "*":
            return True
        if candidate.startswith("W/"):
            candidate = candidate[2:].strip()
        if candidate == etag:
            return True
    return False


class StudyServer(ThreadingHTTPServer):
    """One study's query API: a readout + its results store."""

    # Non-daemon handler threads (unlike ThreadingHTTPServer's default)
    # so ``server_close()`` joins in-flight responses: a bounded run
    # (``repro serve --max-requests N``) must finish writing its last
    # response before the process exits. Requests are short-lived
    # (Connection: close), so the join is bounded too.
    daemon_threads = False

    def __init__(
        self,
        address: Tuple[str, int],
        readout,
        store: ResultStore,
        metrics: Optional[RunMetrics] = None,
        quiet: bool = False,
    ) -> None:
        if readout is None:
            # Live-only mode (``repro serve --live``): no study readout,
            # just the /live/ routes over whatever a follower publishes.
            self.study_id = None
        else:
            provenance = getattr(readout, "provenance", None)
            if provenance is None:
                raise AnalysisError(
                    "cannot serve a readout without provenance (fingerprint/"
                    "model/policy) — load it from a checkpoint or a "
                    "StudyEnergy"
                )
            #: The study id clients address ``/readouts/{study}`` with.
            self.study_id = provenance.fingerprint
        self.readout = readout
        self.store = store
        self.metrics = metrics if metrics is not None else store.metrics
        self.quiet = quiet
        super().__init__(address, _Handler)

    def key_for(self, analysis: str) -> StoreKey:
        """The store key of one servable analysis over this study."""
        return store_key_for(self.readout, analysis)

    def live_manifest(self) -> Optional[dict]:
        """The store's live-window manifest, or ``None`` when absent.

        Re-read on every request: the follower replaces the file
        atomically, so a read sees either the old or the new complete
        manifest, never a torn one.
        """
        path = self.store.directory / LIVE_MANIFEST_NAME
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def index_payload(self) -> dict:
        """What ``GET /`` returns: discovery for curl-level clients."""
        manifest = self.live_manifest()
        live = sorted(manifest.get("windows", {})) if manifest else []
        if self.readout is None:
            return {
                "study": None,
                "model": manifest["model"] if manifest else None,
                "policy": manifest["policy"] if manifest else None,
                "users": 0,
                "endpoints": ["/live/"]
                + [f"/live/{name}/{{analysis}}" for name in live],
                "live": live,
            }
        provenance = self.readout.provenance
        return {
            "study": self.study_id,
            "model": provenance.model,
            "policy": provenance.policy,
            "users": len(self.readout.user_ids),
            "endpoints": [
                "/figures/fig1",
                "/figures/fig2",
                "/figures/fig3",
                "/tables/table1",
                "/headlines",
                f"/readouts/{self.study_id}",
            ],
            "live": live,
        }


class HttpResponder:
    """Response-sending helpers shared by repro's stdlib HTTP servers.

    Mixed into request handlers (here and in :mod:`repro.shard.worker`)
    ahead of :class:`~http.server.BaseHTTPRequestHandler`: every
    response carries an explicit ``Content-Length`` and ``Connection:
    close``, and artefact responses may carry a strong ETag with
    ``must-revalidate`` caching. 404s count under
    :attr:`not_found_counter` on ``self.server.metrics``. A method no
    route takes is a ``405`` naming :attr:`allowed_methods`.
    """

    #: Metrics counter charged by :meth:`_send_not_found`; the shard
    #: worker overrides this with its ``transport.*`` name.
    not_found_counter = "serve.not_found"

    #: The ``Allow`` header of a 405; the shard worker adds POST.
    allowed_methods = "GET"

    def _send(
        self, status: int, body: bytes, content_type: str, etag=None, allow=None
    ):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if etag is not None:
            self.send_header("ETag", etag)
            self.send_header("Cache-Control", "max-age=0, must-revalidate")
        if allow is not None:
            self.send_header("Allow", allow)
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_not_modified(self, etag: str) -> None:
        self.send_response(304)
        self.send_header("ETag", etag)
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()

    def _send_not_found(self, reason: str) -> None:
        self.server.metrics.count(self.not_found_counter)
        self._send(
            404, (reason + "\n").encode("utf-8"), "text/plain; charset=utf-8"
        )

    def do_HEAD(self) -> None:  # noqa: N802 (http.server API)
        self._send(
            405, b"", "text/plain; charset=utf-8", allow=self.allowed_methods
        )

    do_POST = do_PUT = do_DELETE = do_HEAD


class _Handler(HttpResponder, BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _resolve(self, path: str) -> Tuple[Optional[str], str]:
        """Map a URL path to ``(analysis, reason-if-none)``."""
        parts = [p for p in path.split("/") if p]
        if len(parts) == 2 and parts[0] == "figures":
            if parts[1] in SERVABLE_FIGURES:
                return parts[1], ""
            if parts[1] in ("fig4", "fig5", "fig6", "4", "5", "6"):
                return None, (
                    f"figure {parts[1]} replays per-packet arrays; it is "
                    "not servable from the totals tier — run the batch "
                    "CLI (`repro figure N --dataset ...`) instead"
                )
            return None, f"unknown figure {parts[1]!r} (fig1|fig2|fig3)"
        if len(parts) == 2 and parts[0] == "tables":
            if parts[1] == "table1":
                return "table1", ""
            return None, (
                f"unknown table {parts[1]!r}; only table1 is totals-tier "
                "(Table 2 replays packets — use the batch CLI)"
            )
        if parts == ["headlines"]:
            return "headlines", ""
        if len(parts) == 2 and parts[0] == "readouts":
            if parts[1] == self.server.study_id:
                return "readout", ""
            return None, (
                f"unknown study {parts[1]!r}; this server holds study "
                f"{self.server.study_id}"
            )
        return None, f"no route for {path!r} (see GET / for the endpoint list)"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        metrics = self.server.metrics
        metrics.count("serve.requests")
        with metrics.stage("serve.request"):
            path = urlsplit(self.path).path
            if path == "/":
                body = (
                    json.dumps(self.server.index_payload(), indent=2) + "\n"
                ).encode("utf-8")
                self._send(200, body, "application/json")
                return
            if path == "/live" or path.startswith("/live/"):
                self._serve_live(path)
                return
            analysis, reason = self._resolve(path)
            if analysis is None:
                self._send_not_found(reason)
                return
            if self.server.readout is None:
                self._send_not_found(
                    "no study loaded (live-only server; see GET /live/)"
                )
                return
            key = self.server.key_for(analysis)
            etag = key.etag()
            if etag_matches(self.headers.get("If-None-Match"), etag):
                # The ETag *is* the key digest: equality alone proves
                # the client's copy is current — no store round trip.
                metrics.count("serve.not_modified")
                self._send_not_modified(etag)
                return
            kind = ANALYSIS_KINDS[analysis]
            try:
                result = self.server.store.get_or_render(
                    key,
                    lambda: render_analysis(
                        analysis, self.server.readout
                    ).encode("utf-8"),
                    kind=kind,
                )
            except AnalysisError as exc:
                # An artefact this readout cannot produce: a per-packet
                # tier (NeedsPacketDetail) or a selection with no energy.
                self._send_not_found(str(exc))
                return
            self._send(200, result.data, media_type(kind), etag=etag)

    def _serve_live(self, path: str) -> None:
        """The ``/live/`` routes: manifest-driven, publisher-rendered.

        Nothing renders here — the follower already rendered and
        ``put`` every artefact; this side only resolves the manifest to
        a store key and serves the blob. A manifest entry whose blob is
        gone (mid-invalidate race) is a plain 404; the next poll sees
        the new generation.
        """
        metrics = self.server.metrics
        manifest = self.server.live_manifest()
        if manifest is None:
            self._send_not_found(
                "no live windows (no follower has published to this store)"
            )
            return
        parts = [p for p in path.split("/") if p]
        if parts == ["live"]:
            body = (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
            self._send(200, body, "application/json")
            return
        if len(parts) != 3:
            self._send_not_found(
                f"no route for {path!r} (GET /live/ lists live windows)"
            )
            return
        _, window, analysis = parts
        entry = manifest.get("windows", {}).get(window)
        if entry is None:
            known = ", ".join(sorted(manifest.get("windows", {}))) or "none"
            self._send_not_found(
                f"unknown live window {window!r} (published: {known})"
            )
            return
        analyses = manifest.get("analyses", [])
        if analysis not in analyses:
            self._send_not_found(
                f"analysis {analysis!r} is not published live "
                f"({', '.join(analyses)})"
            )
            return
        key = StoreKey(
            entry["fingerprint"],
            manifest["model"],
            manifest["policy"],
            analysis,
        )
        etag = key.etag()
        if etag_matches(self.headers.get("If-None-Match"), etag):
            metrics.count("serve.not_modified")
            self._send_not_modified(etag)
            return
        result = self.server.store.get(key)
        if result is None:
            self._send_not_found(
                f"live window {window!r} has no stored {analysis!r} "
                "(superseded mid-request; refetch GET /live/)"
            )
            return
        self._send(200, result.data, media_type(result.kind), etag=etag)

    def log_message(self, format: str, *args) -> None:
        if not getattr(self.server, "quiet", False):
            super().log_message(format, *args)


def make_server(
    readout,
    store: ResultStore,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics: Optional[RunMetrics] = None,
    quiet: bool = False,
) -> StudyServer:
    """Bind a :class:`StudyServer` (``port=0`` picks a free port).

    The caller drives it: ``serve_forever()`` until interrupted, or
    ``handle_request()`` N times for bounded runs; ``server_address``
    reveals the bound port either way. ``readout=None`` binds a
    live-only server (``repro serve --live``): just the ``/live/``
    routes over whatever a follower publishes into ``store``.
    """
    return StudyServer((host, port), readout, store, metrics, quiet=quiet)
