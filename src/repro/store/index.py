"""The store index and the :class:`ResultStore` facade.

A single SQLite file (``<store>/index.sqlite``, stdlib :mod:`sqlite3`)
maps key digests to blob metadata: the key's four components verbatim
(so entries can be listed and invalidated by fingerprint or analysis
without re-deriving anything), the ETag, the blob kind, its content
checksum and size. SQLite provides the cross-process locking; every
operation opens a short-lived connection, so N serving threads and a
concurrent CLI never share a handle.

:class:`ResultStore` is what everything above this layer talks to —
the CLI's ``--store`` flag, ``repro serve``, ``repro store ls|gc|
invalidate`` and the benchmarks. Its contract:

* :meth:`ResultStore.get` — O(lookup): one indexed SELECT plus one
  checksummed file read, and no write to the index, so concurrent
  readers never queue behind one another's write lock. Any defect (no
  row, missing blob, checksum mismatch on both generations) is a miss,
  never an error. Hits are counted only in ``store.hits``.
* :meth:`ResultStore.get_or_render` — **single-flight** compute on
  miss: concurrent clients racing on the same cold key elect one
  winner (:func:`repro.durable.single_flight`); the winner renders
  and publishes, the others poll the index and return the published
  entry without computing. A winner that dies leaves a stale lock;
  waiters then break it and take over, so a crash degrades to
  compute-twice (last write wins, both writes byte-identical), never
  to a deadlock.
* Invalidation is key-based: any change to the packets (fingerprint),
  model constants or policy changes the key, so stale entries are
  never *served* — they are orphaned, and :meth:`ResultStore.gc` /
  :meth:`ResultStore.invalidate` reclaim the space.

Metrics land in the shared :class:`~repro.metrics.RunMetrics`:
``store.hits`` / ``store.misses`` / ``store.puts`` / ``store.bytes``
counters, ``store.lookup`` / ``store.render`` stages, and
``store.single_flight_waits`` when a client parked behind a winner.
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.durable import (
    LOCK_TIMEOUT_S,
    PREV_SUFFIX,
    TMP_SUFFIX,
    content_checksum,
    single_flight,
)
from repro.metrics import RunMetrics
from repro.store.blobs import BlobStore
from repro.store.keys import StoreKey

# ``hits`` is unused but kept: old and new versions open each other's stores.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    digest      TEXT PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    model       TEXT NOT NULL,
    policy      TEXT NOT NULL,
    analysis    TEXT NOT NULL,
    etag        TEXT NOT NULL,
    kind        TEXT NOT NULL,
    checksum    TEXT NOT NULL,
    nbytes      INTEGER NOT NULL,
    created_at  REAL NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS entries_fingerprint ON entries (fingerprint);
"""


@dataclass(frozen=True)
class IndexEntry:
    """One index row, as listed by ``repro store ls``."""

    digest: str
    fingerprint: str
    model: str
    policy: str
    analysis: str
    etag: str
    kind: str
    checksum: str
    nbytes: int
    created_at: float


@dataclass
class StoredResult:
    """One served artefact: the verified bytes plus cache identity."""

    key: StoreKey
    etag: str
    kind: str
    data: bytes
    #: True when this call rendered the artefact (a cold miss); False
    #: when the bytes came straight from the store.
    fresh: bool = False

    @property
    def text(self) -> str:
        """The artefact decoded as UTF-8."""
        return self.data.decode("utf-8")


class StoreIndex:
    """The SQLite key → blob-metadata map (one short connection per op)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        with closing(self._connect()) as conn, conn:
            conn.executescript(_SCHEMA)

    def _connect(self) -> sqlite3.Connection:
        # ``timeout`` is SQLite's busy handler: wait up to 10 s for a lock.
        return sqlite3.connect(self.path, timeout=10.0)

    def put(
        self, key: StoreKey, etag: str, kind: str, checksum: str, nbytes: int
    ) -> None:
        """Insert or replace the row for ``key``."""
        with closing(self._connect()) as conn, conn:
            conn.execute(
                "INSERT OR REPLACE INTO entries (digest, fingerprint, model,"
                " policy, analysis, etag, kind, checksum, nbytes, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key.digest(),
                    key.fingerprint,
                    key.model,
                    key.policy,
                    key.analysis,
                    etag,
                    kind,
                    checksum,
                    nbytes,
                    time.time(),
                ),
            )

    def lookup(self, digest: str) -> Optional[IndexEntry]:
        """The row named ``digest``, or ``None``."""
        with closing(self._connect()) as conn, conn:
            row = conn.execute(
                "SELECT digest, fingerprint, model, policy, analysis, etag,"
                " kind, checksum, nbytes, created_at FROM entries"
                " WHERE digest = ?",
                (digest,),
            ).fetchone()
        return IndexEntry(*row) if row is not None else None

    def entries(self) -> List[IndexEntry]:
        """Every row, newest first."""
        with closing(self._connect()) as conn, conn:
            rows = conn.execute(
                "SELECT digest, fingerprint, model, policy, analysis, etag,"
                " kind, checksum, nbytes, created_at FROM entries"
                " ORDER BY created_at DESC"
            ).fetchall()
        return [IndexEntry(*row) for row in rows]

    def delete(self, digests: List[str]) -> int:
        """Remove the named rows; returns how many existed."""
        if not digests:
            return 0
        with closing(self._connect()) as conn, conn:
            cursor = conn.execute(
                "DELETE FROM entries WHERE digest IN ("
                + ",".join("?" * len(digests))
                + ")",
                digests,
            )
            return cursor.rowcount


class ResultStore:
    """The persistent results store: SQLite index + checksummed blobs."""

    def __init__(
        self,
        directory: Union[str, Path],
        metrics: Optional[RunMetrics] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.index = StoreIndex(self.directory / "index.sqlite")
        self.blobs = BlobStore(self.directory)
        self._locks = self.directory / "locks"
        self._locks.mkdir(exist_ok=True)
        self.metrics = metrics if metrics is not None else RunMetrics()

    # ------------------------------------------------------------------
    # Lookup / publish
    # ------------------------------------------------------------------
    def get(self, key: StoreKey) -> Optional[StoredResult]:
        """The stored artefact for ``key``, or ``None`` on any miss."""
        with self.metrics.stage("store.lookup"):
            digest = key.digest()
            entry = self.index.lookup(digest)
            data = (
                self.blobs.read(digest, entry.kind, entry.checksum)
                if entry is not None
                else None
            )
        if data is None:
            self.metrics.count("store.misses")
            return None
        self.metrics.count("store.hits")
        self.metrics.count("store.bytes", len(data))
        return StoredResult(key=key, etag=entry.etag, kind=entry.kind, data=data)

    def put(self, key: StoreKey, data: bytes, kind: str = "text") -> StoredResult:
        """Publish ``data`` under ``key`` (blob first, then index row)."""
        digest = key.digest()
        checksum = self.blobs.write(digest, kind, data)
        etag = key.etag()
        self.index.put(key, etag, kind, checksum, len(data))
        self.metrics.count("store.puts")
        return StoredResult(key=key, etag=etag, kind=kind, data=data, fresh=True)

    def get_or_render(
        self,
        key: StoreKey,
        render: Callable[[], bytes],
        kind: str = "text",
    ) -> StoredResult:
        """Serve ``key`` from the store, computing it at most once.

        On a cold key, concurrent callers elect a single winner via an
        exclusive lock file; the winner runs ``render`` (timed under
        the ``store.render`` stage) and publishes, the rest wait on the
        index and serve the winner's bytes. See the module docstring
        for the crash-degraded (last-write-wins) path.
        """
        found = self.get(key)
        if found is not None:
            return found

        def render_and_put() -> StoredResult:
            with self.metrics.stage("store.render"):
                data = render()
            return self.put(key, data, kind)

        return single_flight(
            self._locks / f"{key.digest()}.lock",
            render_and_put,
            lambda: self.get(key),
            on_wait=lambda: self.metrics.count("store.single_flight_waits"),
        )

    # ------------------------------------------------------------------
    # Maintenance (repro store ls | gc | invalidate)
    # ------------------------------------------------------------------
    def entries(self) -> List[IndexEntry]:
        """Every index row, newest first."""
        return self.index.entries()

    def invalidate(
        self,
        fingerprint: Optional[str] = None,
        analysis: Optional[str] = None,
        everything: bool = False,
    ) -> Tuple[int, int]:
        """Drop entries by fingerprint prefix and/or analysis name.

        Returns ``(entries_removed, blob_files_removed)``. With
        ``everything=True`` the whole store is emptied. A fingerprint
        may be abbreviated to any prefix (as printed by ``store ls``).
        """
        if not everything and fingerprint is None and analysis is None:
            raise ValueError(
                "invalidate needs a fingerprint, an analysis, or everything=True"
            )
        doomed = [
            entry
            for entry in self.index.entries()
            if everything
            or (
                (fingerprint is None or entry.fingerprint.startswith(fingerprint))
                and (analysis is None or entry.analysis == analysis)
            )
        ]
        files = sum(self.blobs.delete(e.digest, e.kind) for e in doomed)
        removed = self.index.delete([e.digest for e in doomed])
        self.metrics.count("store.invalidated", removed)
        return removed, files

    def gc(self) -> Tuple[int, int]:
        """Reclaim inconsistent state; returns ``(rows, files)`` removed.

        Drops index rows whose blob is missing or fails its checksum on
        both generations; blob files no index row references (including
        their ``.prev``/``.tmp`` companions); a live entry's ``.prev``
        rotation whose bytes no longer match the row's checksum (reads
        verify against the row, so such a rotation can never be
        served); ``.tmp`` spills and compute locks older than
        :data:`LOCK_TIMEOUT_S`. Young ``.tmp`` files survive either
        way — they may be an in-flight publish whose index row simply
        has not landed yet.
        """
        rows = self.index.entries()
        dead_rows = [
            e.digest
            for e in rows
            if self.blobs.read(e.digest, e.kind, e.checksum) is None
        ]
        removed_rows = self.index.delete(dead_rows)
        dead = set(dead_rows)
        live = {e.digest: e for e in rows if e.digest not in dead}
        removed_files = 0
        now = time.time()
        for blob in sorted(self.blobs.directory.iterdir()):
            name = blob.name
            entry = live.get(name.split(".", 1)[0])
            try:
                if name.endswith(TMP_SUFFIX):
                    if now - blob.stat().st_mtime > LOCK_TIMEOUT_S:
                        blob.unlink()
                        removed_files += 1
                elif entry is None:
                    blob.unlink()
                    removed_files += 1
                elif name.endswith(PREV_SUFFIX):
                    if content_checksum(blob.read_bytes()) != entry.checksum:
                        blob.unlink()
                        removed_files += 1
            except OSError:
                pass
        for lock in sorted(self._locks.glob("*.lock")):
            try:
                if now - lock.stat().st_mtime > LOCK_TIMEOUT_S:
                    lock.unlink()
                    removed_files += 1
            except OSError:
                pass
        return removed_rows, removed_files
