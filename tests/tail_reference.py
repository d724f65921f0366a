"""The live CSV tail as it stood before it read through the block reader,
frozen as the reference for ``repro.follow.TailCsvSource``.

:class:`ReferenceTail` is the old ``TailCsvSource`` polling path copied
verbatim: ``poll`` splits the bytes read at each ``\\n``, runs
``csv.reader`` and ``parse_packet_fields`` on every line and builds
chunks in ``_emit``; ``_read_header``, ``_ensure_fieldnames``,
``_refresh_events`` and ``_header_fields`` are its helpers. On files the
CSV writers write, grown by byte cuts, the tail in ``src`` must return
the same chunks (``array_equal``), snapshots and registry JSON after
every poll, and fail on the same poll with the same exception class.
Import it like ``conftest``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FollowError, SourceTruncated, StreamError, TraceError
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry
from repro.trace.events import EventLog
from repro.trace.intervals import label_packet_states
from repro.trace.io_text import (
    PACKET_COLUMNS,
    parse_packet_fields,
    read_events_csv,
    undecodable,
)

#: The old per-poll read bound (``repro.follow.TAIL_READ_LIMIT``).
TAIL_READ_LIMIT = 1 << 20


class ReferenceTail:
    """The old per-line ``TailCsvSource`` poll, cursor and registry."""

    def __init__(
        self,
        user_files: Sequence[Tuple[Path, Optional[Path]]],
        chunk_size: int,
    ) -> None:
        self.chunk_size = int(chunk_size)
        self._files = [
            (Path(p), Path(e) if e is not None else None)
            for p, e in user_files
        ]
        self.registry = AppRegistry()
        user_ids = range(1, len(self._files) + 1)
        self._cursors: Dict[int, Dict[str, float]] = {
            uid: {"offset": 0, "rows": 0, "last_ts": float("-inf")}
            for uid in user_ids
        }
        self._fieldnames: Dict[int, List[str]] = {}
        self._events: Dict[int, EventLog] = {uid: EventLog() for uid in user_ids}
        self._events_size: Dict[int, int] = {uid: -1 for uid in user_ids}

    def cursor_snapshot(self, user_id: int) -> dict:
        cursor = self._cursors[user_id]
        return {
            "offset": int(cursor["offset"]),
            "rows": int(cursor["rows"]),
            "last_ts": float(cursor["last_ts"]),
        }

    def restore(
        self, cursors: Dict[str, dict], registry_json: Optional[str]
    ) -> None:
        if registry_json is not None:
            self.registry = AppRegistry.from_json(registry_json)
        for uid_text, snapshot in cursors.items():
            self._cursors[int(uid_text)] = {
                "offset": int(snapshot["offset"]),
                "rows": int(snapshot["rows"]),
                "last_ts": float(snapshot["last_ts"]),
            }

    def poll(
        self, user_id: int, max_chunks: Optional[int] = None
    ) -> List[Tuple[PacketArray, dict]]:
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
        _, events_path = self._files[user_id - 1]
        if events_path is None or not events_path.exists():
            return
        size = events_path.stat().st_size
        if size == self._events_size[user_id]:
            return
        self._events[user_id] = read_events_csv(events_path, self.registry)
        self._events_size[user_id] = size


def _header_fields(path: Path, raw: bytes) -> List[str]:
    text = raw.decode("utf-8", "surrogateescape").rstrip("\r")
    if undecodable(text):
        raise FollowError(
            f"{path.name}: packets CSV header is not valid UTF-8"
        )
    return next(csv.reader([text]))
