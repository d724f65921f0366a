"""Tailing packet sources: a growing CSV file, a directory of drops.

Both sources expose the follower's polling protocol: ``registry``,
``user_ids``, ``window(uid)``, ``signature()``, a
``poll(uid, max_chunks)`` that returns ``(chunk, cursor_snapshot)``
pairs for whatever *complete* new data has arrived, and
``restore(cursors, registry_json)`` to rewind to a checkpointed
position. The snapshot rides with its chunk so the follower can make
exactly the consumed prefix durable: its checkpoint stores the
snapshot of the last chunk it *processed*, and a resumed source
re-reads anything that was polled but never folded.

Torn data never enters the pipeline: the CSV tail cuts its read at the
last complete line (a half-written row stays in the file for the next
poll), and the drop directory only consumes whole ``.npz`` files
published with an atomic rename. A source that *shrinks* raises
:class:`~repro.errors.SourceTruncated` — the cursor would otherwise
point into rewritten history.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.errors import FollowError, SourceTruncated, StreamError, TraceError
from repro.follow.windows import FOLLOW_WINDOW_END
from repro.stream.chunks import DEFAULT_CHUNK_SIZE, NpzStreamSource
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry
from repro.trace.events import EventLog
from repro.trace.intervals import label_packet_states
from repro.trace.io_text import (
    PACKET_COLUMNS,
    PathLike,
    parse_packet_fields,
    read_events_csv,
    undecodable,
)

#: Upper bound on bytes read per tail poll — keeps one poll's memory
#: and latency bounded no matter how far behind the follower fell.
TAIL_READ_LIMIT = 1 << 20


class TailCsvSource:
    """Follow growing ``io_text`` packets CSVs, one file per user.

    Each user has a byte cursor just past the last complete line
    consumed; a poll stats the file, reads at most
    :data:`TAIL_READ_LIMIT` new bytes, cuts at the final newline and
    parses the complete rows through the batch reader's exact parse
    (:func:`~repro.trace.io_text.parse_packet_fields`), so app ids are
    assigned in arrival order exactly as a batch read of the final file
    would. Event CSVs are re-read whole whenever they grow (event
    streams are tiny next to packet tables) and label every chunk.
    """

    def __init__(
        self,
        user_files: Sequence[Tuple[PathLike, Optional[PathLike]]],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if not user_files:
            raise FollowError("at least one user is required")
        if chunk_size < 1:
            raise FollowError(f"chunk_size must be >= 1: {chunk_size}")
        self.chunk_size = int(chunk_size)
        self._files = [
            (Path(p), Path(e) if e is not None else None)
            for p, e in user_files
        ]
        self.registry = AppRegistry()
        #: Per-user tail position: byte offset past the last consumed
        #: complete line, surviving-row count, last timestamp seen.
        self._cursors: Dict[int, Dict[str, float]] = {
            uid: {"offset": 0, "rows": 0, "last_ts": float("-inf")}
            for uid in self.user_ids
        }
        self._fieldnames: Dict[int, List[str]] = {}
        self._events: Dict[int, EventLog] = {
            uid: EventLog() for uid in self.user_ids
        }
        self._events_size: Dict[int, int] = {uid: -1 for uid in self.user_ids}

    @property
    def user_ids(self) -> List[int]:
        """User ids in file order (1..N, as the batch reader)."""
        return list(range(1, len(self._files) + 1))

    def window(self, user_id: int) -> Tuple[float, float]:
        """A follow has no end of time: ``(0, FOLLOW_WINDOW_END)``."""
        return (0.0, FOLLOW_WINDOW_END)

    def signature(self) -> str:
        """Digest binding follow checkpoints to these files."""
        payload = json.dumps(
            {
                "kind": "csv-tail",
                "files": [
                    [str(p), str(e) if e is not None else None]
                    for p, e in self._files
                ],
            }
        )
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=12
        ).hexdigest()

    # ------------------------------------------------------------------
    # Cursor persistence
    # ------------------------------------------------------------------
    def cursor_snapshot(self, user_id: int) -> dict:
        """The user's current position (JSON-serialisable)."""
        cursor = self._cursors[user_id]
        return {
            "offset": int(cursor["offset"]),
            "rows": int(cursor["rows"]),
            "last_ts": float(cursor["last_ts"]),
        }

    def restore(
        self, cursors: Dict[str, dict], registry_json: Optional[str]
    ) -> None:
        """Rewind to checkpointed cursors + app registry.

        The registry must come back too: the resumed tail never
        re-reads consumed bytes, so apps registered by them would
        otherwise be missing — and every later app would get a
        different id.
        """
        if registry_json is not None:
            self.registry = AppRegistry.from_json(registry_json)
        for uid_text, snapshot in cursors.items():
            uid = int(uid_text)
            if uid not in self._cursors:
                raise FollowError(
                    f"checkpoint cursor for unknown user {uid}"
                )
            self._cursors[uid] = {
                "offset": int(snapshot["offset"]),
                "rows": int(snapshot["rows"]),
                "last_ts": float(snapshot["last_ts"]),
            }

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(
        self, user_id: int, max_chunks: Optional[int] = None
    ) -> List[Tuple[PacketArray, dict]]:
        """New complete rows since the cursor, as (chunk, snapshot) pairs.

        Returns ``[]`` when nothing complete has arrived. The cursor
        advances only over rows that were handed out; a trailing torn
        line (no newline yet) stays for the next poll. Raises
        :class:`~repro.errors.SourceTruncated` if the file shrank below
        the cursor.
        """
        faults.fire("follow.tail")
        packets_path, _ = self._files[user_id - 1]
        cursor = self._cursors[user_id]
        if not packets_path.exists():
            if cursor["offset"]:
                raise SourceTruncated(packets_path, int(cursor["offset"]), 0)
            return []
        size = packets_path.stat().st_size
        if size < cursor["offset"]:
            raise SourceTruncated(
                packets_path, int(cursor["offset"]), size
            )
        if cursor["offset"] == 0 and not self._read_header(user_id):
            return []
        if size <= cursor["offset"]:
            return []
        self._refresh_events(user_id)
        fieldnames = self._ensure_fieldnames(user_id)
        with open(packets_path, "rb") as handle:
            handle.seek(int(cursor["offset"]))
            data = handle.read(
                min(size - int(cursor["offset"]), TAIL_READ_LIMIT)
            )
        cut = data.rfind(b"\n")
        if cut < 0:
            return []
        data = data[: cut + 1]
        lines = data.split(b"\n")[:-1]
        out: List[Tuple[PacketArray, dict]] = []
        rows: List[tuple] = []
        consumed = 0
        for raw in lines:
            consumed += len(raw) + 1
            text = raw.decode("utf-8", "surrogateescape").rstrip("\r")
            if not text:
                continue
            fields = next(csv.reader([text]))
            try:
                if undecodable(text):
                    raise TraceError("row is not valid UTF-8")
                row = parse_packet_fields(
                    dict(zip(fieldnames, fields)), self.registry
                )
            except (TraceError, ValueError, TypeError, KeyError) as exc:
                raise StreamError(
                    f"{packets_path.name}: malformed tailed row "
                    f"{text!r}: {exc}"
                ) from exc
            if row[0] < cursor["last_ts"]:
                raise StreamError(
                    f"{packets_path.name}: tailed packets not "
                    f"time-sorted (t={row[0]} after t={cursor['last_ts']})"
                )
            cursor["last_ts"] = row[0]
            rows.append(row)
            if len(rows) >= self.chunk_size:
                out.append(self._emit(user_id, rows, consumed))
                rows, consumed = [], 0
                if max_chunks is not None and len(out) >= max_chunks:
                    return out
        if rows:
            out.append(self._emit(user_id, rows, consumed))
        return out

    def _emit(
        self, user_id: int, rows: List[tuple], n_bytes: int
    ) -> Tuple[PacketArray, dict]:
        """Advance the cursor over ``rows`` and build their chunk."""
        cursor = self._cursors[user_id]
        cursor["offset"] = int(cursor["offset"]) + n_bytes
        cursor["rows"] = int(cursor["rows"]) + len(rows)
        columns = list(zip(*rows))
        chunk = PacketArray.from_columns(
            np.array(columns[0], dtype=np.float64),
            np.array(columns[1], dtype=np.uint32),
            np.array(columns[2], dtype=np.uint8),
            np.array(columns[3], dtype=np.uint16),
            np.array(columns[4], dtype=np.uint32),
        )
        label_packet_states(chunk, self._events[user_id])
        return chunk, self.cursor_snapshot(user_id)

    def _read_header(self, user_id: int) -> bool:
        """Consume the header line once a complete one exists."""
        packets_path, _ = self._files[user_id - 1]
        with open(packets_path, "rb") as handle:
            head = handle.read(TAIL_READ_LIMIT)
        end = head.find(b"\n")
        if end < 0:
            return False
        fieldnames = _header_fields(packets_path, head[:end])
        if not PACKET_COLUMNS.issubset(fieldnames):
            raise FollowError(
                f"{packets_path.name}: packets CSV must have columns "
                f"{sorted(PACKET_COLUMNS)}, got {fieldnames}"
            )
        self._fieldnames[user_id] = fieldnames
        self._cursors[user_id]["offset"] = end + 1
        return True

    def _ensure_fieldnames(self, user_id: int) -> List[str]:
        """Fieldnames for a user whose header is already consumed.

        After a restore the cursor sits mid-file but the header was
        never parsed in this process; read it back from offset 0.
        """
        if user_id not in self._fieldnames:
            packets_path, _ = self._files[user_id - 1]
            with open(packets_path, "rb") as handle:
                head = handle.read(TAIL_READ_LIMIT)
            end = head.find(b"\n")
            if end < 0:
                raise FollowError(
                    f"{packets_path.name}: no header line under a "
                    "non-zero cursor — file was replaced?"
                )
            self._fieldnames[user_id] = _header_fields(
                packets_path, head[:end]
            )
        return self._fieldnames[user_id]

    def _refresh_events(self, user_id: int) -> None:
        """Re-read the user's events CSV whole when it changed size."""
        _, events_path = self._files[user_id - 1]
        if events_path is None or not events_path.exists():
            return
        size = events_path.stat().st_size
        if size == self._events_size[user_id]:
            return
        self._events[user_id] = read_events_csv(events_path, self.registry)
        self._events_size[user_id] = size


def _header_fields(path: Path, raw: bytes) -> List[str]:
    """A tailed packets CSV's column names, from its raw header line."""
    text = raw.decode("utf-8", "surrogateescape").rstrip("\r")
    if undecodable(text):
        raise FollowError(
            f"{path.name}: packets CSV header is not valid UTF-8"
        )
    return next(csv.reader([text]))


class NpzDropSource:
    """Follow a directory that receives whole ``.npz`` dataset drops.

    Drops (saved :class:`~repro.trace.dataset.Dataset` archives, e.g.
    one per day) are consumed in sorted-name order through the
    bounded-memory :class:`~repro.stream.NpzStreamSource`. Every drop
    must carry the same user set, and each drop's app registry must be
    a *prefix extension* of the registry accumulated so far — same
    names, same ids, possibly new apps appended — otherwise app ids
    would silently rebind mid-follow (:class:`~repro.errors.FollowError`).
    """

    def __init__(
        self, directory: PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> None:
        if chunk_size < 1:
            raise FollowError(f"chunk_size must be >= 1: {chunk_size}")
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FollowError(f"not a drop directory: {self.directory}")
        self.chunk_size = int(chunk_size)
        self.registry = AppRegistry()
        self._user_ids: List[int] = []
        #: Per-user drop position: drops fully consumed, the drop in
        #: progress (or None) and rows consumed into it.
        self._cursors: Dict[int, dict] = {}
        self._sources: Dict[str, NpzStreamSource] = {}

    @property
    def user_ids(self) -> List[int]:
        """User ids from the first drop (empty until one arrives)."""
        if not self._user_ids:
            drops = self._drop_names()
            if drops:
                self._adopt_drop(self._source_for(drops[0]))
        return list(self._user_ids)

    def window(self, user_id: int) -> Tuple[float, float]:
        """A follow has no end of time: ``(0, FOLLOW_WINDOW_END)``."""
        return (0.0, FOLLOW_WINDOW_END)

    def signature(self) -> str:
        """Digest binding follow checkpoints to this directory.

        Over the directory path only — new drops arriving must *not*
        invalidate the checkpoint; that is the entire point.
        """
        payload = json.dumps(
            {"kind": "npz-drops", "path": str(self.directory)}
        )
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=12
        ).hexdigest()

    # ------------------------------------------------------------------
    # Cursor persistence
    # ------------------------------------------------------------------
    def cursor_snapshot(self, user_id: int) -> dict:
        cursor = self._cursor(user_id)
        return {
            "done": list(cursor["done"]),
            "name": cursor["name"],
            "rows": int(cursor["rows"]),
        }

    def restore(
        self, cursors: Dict[str, dict], registry_json: Optional[str]
    ) -> None:
        """Rewind to checkpointed drop positions + app registry.

        Deliberately does *not* adopt the cursor keys as the follow's
        user set: a checkpoint taken before every user had produced a
        chunk would then pin a partial set and reject the next drop.
        The user set always comes from the drops themselves.
        """
        if registry_json is not None:
            self.registry = AppRegistry.from_json(registry_json)
        for uid_text, snapshot in cursors.items():
            uid = int(uid_text)
            self._cursors[uid] = {
                "done": list(snapshot["done"]),
                "name": snapshot["name"],
                "rows": int(snapshot["rows"]),
            }

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(
        self, user_id: int, max_chunks: Optional[int] = None
    ) -> List[Tuple[PacketArray, dict]]:
        """One user's next chunks, finishing at most one drop per call."""
        faults.fire("follow.tail")
        cursor = self._cursor(user_id)
        drops = self._drop_names()
        done = set(cursor["done"])
        missing = done - set(drops)
        if missing:
            raise SourceTruncated(
                self.directory / sorted(missing)[0], len(done), len(drops)
            )
        pending = [name for name in drops if name not in done]
        if not pending:
            return []
        name = pending[0]
        if cursor["name"] is not None and cursor["name"] != name:
            if cursor["name"] not in drops:
                raise SourceTruncated(
                    self.directory / cursor["name"], 1, 0
                )
            name = cursor["name"]
        source = self._source_for(name)
        self._adopt_drop(source)
        skip = cursor["rows"] if cursor["name"] == name else 0
        cursor["name"], cursor["rows"] = name, skip
        out: List[Tuple[PacketArray, dict]] = []
        finished = True
        for chunk in source.iter_chunks(user_id, skip=skip):
            cursor["rows"] = int(cursor["rows"]) + len(chunk)
            out.append((chunk, self.cursor_snapshot(user_id)))
            if max_chunks is not None and len(out) >= max_chunks:
                finished = cursor["rows"] >= source.n_packets(user_id)
                break
        if finished or cursor["rows"] >= source.n_packets(user_id):
            cursor["done"].append(name)
            cursor["name"], cursor["rows"] = None, 0
            if out:
                # The last chunk's durable snapshot marks the whole
                # drop consumed, not a row offset into it.
                out[-1] = (out[-1][0], self.cursor_snapshot(user_id))
            else:
                # A drop with no packets for this user still completes.
                pass
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fresh_cursor(self) -> dict:
        return {"done": [], "name": None, "rows": 0}

    def _cursor(self, user_id: int) -> dict:
        return self._cursors.setdefault(user_id, self._fresh_cursor())

    def _drop_names(self) -> List[str]:
        return sorted(p.name for p in self.directory.glob("*.npz"))

    def _source_for(self, name: str) -> NpzStreamSource:
        if name not in self._sources:
            self._sources[name] = NpzStreamSource(
                self.directory / name, chunk_size=self.chunk_size
            )
        return self._sources[name]

    def _adopt_drop(self, source: NpzStreamSource) -> None:
        """Merge one drop's registry/users into the follow's view."""
        ours = [self.registry.name_of(a.app_id) for a in self.registry]
        theirs = [
            source.registry.name_of(a.app_id) for a in source.registry
        ]
        shared = min(len(ours), len(theirs))
        if ours[:shared] != theirs[:shared]:
            raise FollowError(
                f"drop {Path(source.path).name} app registry is not an "
                "extension of the followed registry — app ids would "
                "rebind mid-follow"
            )
        if len(theirs) > len(ours):
            self.registry = AppRegistry.from_json(
                source.registry.to_json()
            )
        if not self._user_ids:
            self._user_ids = list(source.user_ids)
            for uid in self._user_ids:
                self._cursors.setdefault(uid, self._fresh_cursor())
        elif list(source.user_ids) != self._user_ids:
            raise FollowError(
                f"drop {Path(source.path).name} covers users "
                f"{list(source.user_ids)}, the follow covers "
                f"{self._user_ids} — drops must share one user set"
            )


TailSource = (TailCsvSource, NpzDropSource)
