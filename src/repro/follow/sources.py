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

Torn data never enters the pipeline: the CSV tail cuts its reads of
packets and events at the last complete line (a half-written row, or a
quoted record still open, stays in the file for the next poll), and
the drop directory only consumes whole ``.npz`` files published with
an atomic rename. A source that *shrinks* raises
:class:`~repro.errors.SourceTruncated` — the cursor would otherwise
point into rewritten history.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.errors import FollowError, SourceTruncated, StreamError, TraceError
from repro.follow.windows import FOLLOW_WINDOW_END
from repro.stream.chunks import DEFAULT_CHUNK_SIZE, CsvStreamSource, NpzStreamSource
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry
from repro.trace.events import EventLog
from repro.trace.io_text import (
    PathLike,
    _line_ends,
    _packet_reader,
    _read_events,
)

#: Upper bound on bytes read per tail poll — keeps one poll's memory
#: and latency bounded no matter how far behind the follower fell.
TAIL_READ_LIMIT = 1 << 20


class TailCsvSource:
    """Follow growing ``io_text`` packets CSVs, one file per user.

    Each user has a byte cursor just past the last complete row
    consumed; a poll stats the file, reads at most :data:`TAIL_READ_LIMIT`
    new bytes, cuts at the final newline (for ``max_chunks``, at the
    ``max_chunks * chunk_size``-th line end, so that no app registers
    past the rows returned) and parses them, chunks and labels exactly
    as :class:`~repro.stream.CsvStreamSource` does. A record left inside
    quotes waits for the next poll. Event CSVs are re-read whole when
    their complete lines grow. App ids follow reading order — a user's
    events, then its new rows, poll by poll — not a batch read's.
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
        #: complete row, surviving-row count, last timestamp seen.
        self._cursors: Dict[int, Dict[str, float]] = {
            uid: {"offset": 0, "rows": 0, "last_ts": float("-inf")}
            for uid in self.user_ids
        }
        self._headers: Dict[int, bytes] = {}
        #: File lines before each user's cursor, once its header is read.
        self._lines: Dict[int, int] = {}
        self._events: Dict[int, EventLog] = {
            uid: EventLog() for uid in self.user_ids
        }
        #: Bytes of each user's events CSV read: its complete lines.
        self._events_size: Dict[int, int] = {uid: 0 for uid in self.user_ids}

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
            self._lines.pop(uid, None)  # recounted at the next poll

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
        the cursor, and :class:`~repro.errors.StreamError` naming the
        byte offset of a line longer than :data:`TAIL_READ_LIMIT`.
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
        if user_id not in self._lines and not self._read_header(user_id, size):
            return []
        if size <= cursor["offset"]:
            return []
        self._refresh_events(user_id)
        data = _whole_lines(packets_path, int(cursor["offset"]), size)
        ends = _line_ends(data)
        cut = len(ends)
        if max_chunks is not None:
            cut = min(cut, max_chunks * self.chunk_size)
        polled = self._parse(user_id, data[: ends[cut - 1] + 1], ends) if cut else []
        if not polled and cut < len(ends):
            # A quoted record spans more lines than the poll may return
            # rows: read on, past ``max_chunks``, to the end of the read.
            polled = self._parse(user_id, data, ends)
        if not polled:
            _check_fits(packets_path, int(cursor["offset"]), size)
        return polled

    def _parse(
        self, user_id: int, data: bytes, ends: np.ndarray
    ) -> List[Tuple[PacketArray, dict]]:
        """The rows of ``data``, whole lines from the cursor, as chunks."""
        path, _ = self._files[user_id - 1]
        cursor, before = self._cursors[user_id], self._lines[user_id]
        span = self._headers[user_id] + data
        numbers, blocks, last_ts = [], [], cursor["last_ts"]
        for block_lines, packets in CsvStreamSource._read(
            path, self.registry, span=(span, before - 1)
        ):
            ts = packets.timestamps
            last_ts = CsvStreamSource._check_order(path, block_lines, ts, last_ts)
            numbers.append(block_lines)
            blocks.append(packets)
        if not blocks:
            return []
        lines, start, rows = np.concatenate(numbers), int(cursor["offset"]), 0
        out: List[Tuple[PacketArray, dict]] = []
        for chunk in CsvStreamSource._rechunked(blocks, self.chunk_size):
            rows += len(chunk)
            # The chunk ends where its last row's last line does.
            line = int(lines[rows - 1])
            cursor["offset"] = start + int(ends[line - before - 1]) + 1
            cursor["rows"] = int(cursor["rows"]) + len(chunk)
            cursor["last_ts"] = float(chunk.timestamps[-1])
            self._lines[user_id] = line
            chunk = CsvStreamSource._labelled(chunk, self._events[user_id])
            out.append((chunk, self.cursor_snapshot(user_id)))
        return out

    def _read_header(self, user_id: int, size: int) -> bool:
        """Check a complete header; count the file lines before the cursor."""
        packets_path, _ = self._files[user_id - 1]
        cursor = self._cursors[user_id]
        head = _whole_lines(packets_path, 0, size)
        end = head.find(b"\n") + 1
        if not end:
            if cursor["offset"]:
                raise FollowError(
                    f"{packets_path.name}: no header line under a "
                    "non-zero cursor — file was replaced?"
                )
            _check_fits(packets_path, 0, size)
            return False
        self._headers[user_id] = head[:end]
        try:  # the reader checks a header as it opens the file
            list(_packet_reader(packets_path, self.registry, span=(head[:end], 0)))
        except TraceError as exc:
            raise FollowError(str(exc)) from None
        cursor["offset"] = int(cursor["offset"]) or end
        self._lines[user_id] = _count_lines(packets_path, cursor["offset"])
        return True

    def _refresh_events(self, user_id: int) -> None:
        """Re-read the user's events CSV up to its last complete line
        when that grew: a torn last line waits for its newline."""
        _, events_path = self._files[user_id - 1]
        if events_path is None or not events_path.exists():
            return
        size = events_path.stat().st_size
        if size == self._events_size[user_id]:
            return
        data = _whole_lines(events_path, 0, size, limit=size)
        if len(data) != self._events_size[user_id]:
            self._events[user_id] = _read_events(events_path, self.registry, (data, 0))
            self._events_size[user_id] = len(data)


def _whole_lines(path: Path, start: int, size: int, limit=TAIL_READ_LIMIT) -> bytes:
    """The whole lines in the next ``limit`` bytes of ``path`` from ``start``."""
    with open(path, "rb") as handle:
        handle.seek(start)
        data = handle.read(min(size - start, limit))
    return data[: data.rfind(b"\n") + 1]


def _check_fits(path: Path, offset: int, size: int) -> None:
    """Refuse the line at ``offset`` if no poll can read it whole: a
    full :data:`TAIL_READ_LIMIT` read from there held no complete row."""
    if size - offset >= TAIL_READ_LIMIT:
        raise StreamError(
            f"{path.name}: the line at byte {offset} is longer than "
            f"TAIL_READ_LIMIT ({TAIL_READ_LIMIT} bytes)"
        )


def _count_lines(path: Path, stop: int) -> int:
    """The lines ``_line_ends`` finds in the first ``stop`` bytes of ``path``."""
    count = 0
    with open(path, "rb") as handle:
        for start in range(0, stop, TAIL_READ_LIMIT):
            n = min(TAIL_READ_LIMIT, stop - start)
            handle.seek(start)
            # A byte more tells a "\r" that ends the piece from "\r\n".
            count += int(np.count_nonzero(_line_ends(handle.read(n + 1)) < n))
    return count


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
