"""Persistent results store + the ``repro serve`` HTTP query API.

The store caches *rendered* artefacts — figure/table text, headline
blocks, readout-aggregate JSON — keyed by everything they depend on:
``(dataset fingerprint, radio model, tail policy, analysis)``
(:class:`~repro.store.keys.StoreKey`). A SQLite index maps keys to
checksummed blob files written with the checkpoint ``.prev`` rotation,
so concurrent readers never see a torn artefact and a crashed write
costs at most one recompute (:class:`~repro.store.index.ResultStore`).

On top of the store, :mod:`repro.store.server` serves the totals-tier
endpoints over stdlib ``http.server`` with strong ETags equal to the
store-key digest: conditional requests answer 304 without touching the
store at all. The CLI (``repro figure --store``, ``repro serve``,
``repro store ls|gc|invalidate``) is a thin client of the same
:data:`~repro.store.render.ANALYSES` registry, which is what makes
store-served, checkpoint-rendered and direct-batch output
byte-identical. The full contract is documented in docs/SERVING.md.
"""

from repro.store.blobs import BlobStore, media_type
from repro.store.index import (
    IndexEntry,
    ResultStore,
    StoredResult,
    StoreIndex,
)
from repro.store.keys import ANALYSIS_NAMES, StoreKey, store_key_for
from repro.store.render import (
    ANALYSES,
    ANALYSIS_KINDS,
    readout_payload,
    render_analysis,
    render_headline_rows,
)
from repro.store.server import (
    LIVE_MANIFEST_NAME,
    ROUTES,
    StudyServer,
    etag_matches,
    make_server,
)

__all__ = [
    "ANALYSES",
    "ANALYSIS_KINDS",
    "ANALYSIS_NAMES",
    "BlobStore",
    "IndexEntry",
    "LIVE_MANIFEST_NAME",
    "ResultStore",
    "ROUTES",
    "StoreIndex",
    "StoreKey",
    "StoredResult",
    "StudyServer",
    "etag_matches",
    "make_server",
    "media_type",
    "readout_payload",
    "render_analysis",
    "render_headline_rows",
    "store_key_for",
]
