"""Blob files: the stored bytes of each rendered artefact.

One file per store key under ``<store>/blobs/``, named by the key
digest with an extension per artefact kind (``.txt`` for rendered
figures/tables/headlines, ``.json`` for readout aggregates). The index
(:mod:`repro.store.index`) maps keys to blobs and carries each blob's
content checksum; this module only moves verified bytes.

Writes follow the checkpoint durability pattern
(:func:`repro.durable.write_atomic` with ``keep_prev=True``): the new
blob is written to a temp file, the previous good generation is
rotated to ``<name>.prev``, and one rename publishes. Reads verify the
expected checksum and fall back to the ``.prev`` generation when the
current file is torn; a blob that fails both ways is a **miss, never
an error** — the caller recomputes and overwrites.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.durable import (
    content_checksum,
    previous_path,
    read_verified,
    write_atomic,
)

#: Artefact kinds and their blob extensions / media types.
BLOB_KINDS = {
    "text": ("txt", "text/plain; charset=utf-8"),
    "json": ("json", "application/json"),
}


def media_type(kind: str) -> str:
    """The HTTP ``Content-Type`` for one artefact kind."""
    return BLOB_KINDS[kind][1]


class BlobStore:
    """Checksummed blob files under ``<directory>/blobs/``."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory) / "blobs"
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, digest: str, kind: str) -> Path:
        """The blob file for one key digest and artefact kind."""
        if kind not in BLOB_KINDS:
            raise ValueError(
                f"unknown blob kind {kind!r}; expected one of "
                f"{sorted(BLOB_KINDS)}"
            )
        return self.directory / f"{digest}.{BLOB_KINDS[kind][0]}"

    def write(self, digest: str, kind: str, data: bytes) -> str:
        """Persist ``data``; returns its content checksum.

        Atomic (tmp + rename) with the previous good generation
        rotated to ``.prev``, so a concurrent reader always sees a
        complete file and a torn final rename still leaves one
        recoverable generation behind.
        """
        write_atomic(self.path_for(digest, kind), data, keep_prev=True)
        return content_checksum(data)

    def read(
        self, digest: str, kind: str, checksum: str
    ) -> Optional[bytes]:
        """The verified bytes for one entry, or ``None`` on any defect.

        Tries the current file, then the ``.prev`` rotation; a missing
        file or a checksum mismatch on both is a miss (the index entry
        is stale or the write tore), never an error.
        """

        def verified(candidate: Path) -> bytes:
            data = candidate.read_bytes()
            if content_checksum(data) != checksum:
                raise ValueError(f"{candidate} fails its checksum")
            return data

        try:
            return read_verified(self.path_for(digest, kind), verified)[0]
        except (OSError, ValueError):
            return None

    def delete(self, digest: str, kind: str) -> int:
        """Remove a blob and its ``.prev``; returns files deleted. A
        writer's temp file is its own (``gc`` reclaims stale ones)."""
        path = self.path_for(digest, kind)
        removed = 0
        for candidate in (path, previous_path(path)):
            try:
                candidate.unlink()
                removed += 1
            except OSError:
                pass
        return removed
