"""Chunked packet sources for streaming ingestion.

Two sources feed :class:`repro.stream.StreamIngestor`, both yielding
one user's packets as a sequence of time-ordered, bounded-size
:class:`~repro.trace.arrays.PacketArray` chunks:

* :class:`CsvStreamSource` — the ``io_text`` CSV schemas, parsed in
  blocks by the reader the batch reader uses
  (:func:`repro.trace.io_text.iter_packet_blocks`), so app registration
  order — and therefore every app id — is identical to
  :func:`repro.trace.io_text.dataset_from_csv` over the same files.
* :class:`NpzStreamSource` — a saved :class:`~repro.trace.dataset.Dataset`
  archive, read member-by-member through :mod:`zipfile` so only one
  chunk of one user's packet table is ever decompressed into memory.

Both expose the same protocol: ``registry``, ``user_ids``,
``window(uid)``, ``n_packets(uid)``, ``iter_chunks(uid, skip=0)`` and a
:meth:`signature` digest that binds checkpoints to their source.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import weakref
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import faults
from repro.errors import StreamError, TraceError
from repro.trace.arrays import PACKET_DTYPE, PacketArray, packet_defect
from repro.trace.dataset import AppRegistry, _open_archive, _read_header
from repro.trace.events import EventLog
from repro.trace.intervals import label_packet_states
from repro.trace.io_text import (
    PathLike,
    _packet_reader,
    read_events_csv,
)

#: Default rows per chunk — small enough that a chunk of the paper-scale
#: packet table is a few hundred kilobytes, large enough to amortise the
#: per-chunk numpy overhead.
DEFAULT_CHUNK_SIZE = 65536


class RowQuarantine:
    """Tally of malformed input rows a source dropped instead of raising.

    Real collection logs contain garbage lines; with
    ``quarantine_rows=True`` a :class:`CsvStreamSource` records each one
    here under its user — a count plus the first few error messages —
    and the run continues bit-identical on the surviving rows.
    :meth:`for_users` cuts out one shard's share, so a sharded run
    counts each row once; :meth:`flush_to` reports the tally into a
    :class:`~repro.metrics.RunMetrics` exactly once.
    """

    #: How many example messages are kept.
    SAMPLE_LIMIT = 5

    def __init__(self) -> None:
        #: user id (``None`` when the reader named none) -> rows dropped.
        self._counts: Dict[Optional[int], int] = {}
        #: ``(user_id, message)`` of each user's first few rows, in
        #: recording order.
        self._kept: List[Tuple[Optional[int], str]] = []
        self._flushed = False

    @property
    def count(self) -> int:
        """Rows dropped, over all users."""
        return sum(self._counts.values())

    @property
    def samples(self) -> List[str]:
        """The first :attr:`SAMPLE_LIMIT` messages, in recording order."""
        return [message for _, message in self._kept[: self.SAMPLE_LIMIT]]

    def record(self, error: Exception, user_id: Optional[int] = None) -> None:
        """Count one dropped row of ``user_id``, keeping its message if
        it is among that user's first few."""
        seen = self._counts.get(user_id, 0)
        self._counts[user_id] = seen + 1
        if seen < self.SAMPLE_LIMIT:
            self._kept.append((user_id, str(error)))

    def for_users(self, user_ids: Iterable[int]) -> "RowQuarantine":
        """A fresh, unflushed tally of only ``user_ids``' rows."""
        wanted = set(user_ids)
        share = RowQuarantine()
        share._counts = {u: n for u, n in self._counts.items() if u in wanted}
        share._kept = [(u, m) for u, m in self._kept if u in wanted]
        return share

    def flush_to(self, metrics) -> None:
        """Report count + samples into ``metrics`` (idempotent)."""
        if self._flushed or not self.count:
            return
        self._flushed = True
        metrics.count("faults.rows_quarantined", self.count)
        for sample in self.samples:
            metrics.sample("faults.rows_quarantined", sample)


class CsvStreamSource:
    """Stream per-user packets from ``io_text`` CSV files.

    A prepass parses every user's files once — registering app names in
    the exact order the batch reader would and recording the row count
    and time horizon — so ids, windows and state labels match
    :func:`~repro.trace.io_text.dataset_from_csv` over the same files
    exactly, and a malformed row fails construction. Packet CSVs must
    already be time-sorted (the batch path sorts in RAM; a
    bounded-memory reader cannot), which the prepass checks, naming
    the file and line of the first row out of order.

    The parsed, unlabelled records (24 bytes a row) wait for
    :meth:`iter_chunks` in an anonymous temporary file, closed with the
    source: memory stays one chunk, and a CSV edited or deleted after
    construction does not change what streams.

    Event CSVs are read whole in the prepass (event streams are tiny
    next to packet tables) and used to state-label each chunk; only
    packet rows are streamed.

    Args:
        user_files: One ``(packets_csv, events_csv_or_None)`` per user;
            user ids are assigned 1..N in order, as in the batch reader.
        chunk_size: Maximum packets per yielded chunk.
        duration: Observation window length; defaults to the latest
            packet/event time across users rounded up to a whole day
            (the batch reader's rule).
        quarantine_rows: Drop malformed packet rows instead of raising,
            recording each into :attr:`quarantine`; the run's numbers
            stay bit-identical to a batch run over the surviving rows.
    """

    def __init__(
        self,
        user_files: Sequence[Tuple[PathLike, Optional[PathLike]]],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        duration: Optional[float] = None,
        quarantine_rows: bool = False,
    ) -> None:
        if not user_files:
            raise StreamError("at least one user is required")
        if chunk_size < 1:
            raise StreamError(f"chunk_size must be >= 1: {chunk_size}")
        self.chunk_size = int(chunk_size)
        self._files = [
            (Path(p), Path(e) if e is not None else None)
            for p, e in user_files
        ]
        self.registry = AppRegistry()
        self.quarantine = RowQuarantine()
        self._quarantine_rows = bool(quarantine_rows)
        self._events: Dict[int, EventLog] = {}
        self._counts: Dict[int, int] = {}
        #: Byte offset of each user's first record in the spill.
        self._first: Dict[int, int] = {}
        self._spill = tempfile.TemporaryFile(buffering=0)
        weakref.finalize(self, self._spill.close)
        horizon = 0.0
        for uid, (packets_path, events_path) in enumerate(
            self._files, start=1
        ):
            # The prepass records dropped rows; re-iteration must skip
            # the same rows without counting them twice.
            on_bad = (
                functools.partial(self.quarantine.record, user_id=uid)
                if self._quarantine_rows
                else None
            )
            count = 0
            last_ts = -np.inf
            self._first[uid] = self._spill.tell()
            for line_numbers, packets in self._read(
                packets_path, self.registry, on_bad_row=on_bad
            ):
                ts = packets.timestamps
                last_ts = self._check_order(packets_path, line_numbers, ts, last_ts)
                count += len(ts)
                self._write_spill(packets_path, packets.data)
            if count:
                horizon = max(horizon, last_ts)
            events = (
                read_events_csv(events_path, self.registry)
                if events_path is not None
                else EventLog()
            )
            horizon = max(horizon, events.last_timestamp)
            self._events[uid] = events
            self._counts[uid] = count
        if duration is None:
            duration = float(np.ceil(horizon / 86400.0) * 86400.0) or 86400.0
        self.duration = float(duration)

    @property
    def user_ids(self) -> List[int]:
        """User ids in ingestion order (1..N, as the batch reader)."""
        return list(range(1, len(self._files) + 1))

    def window(self, user_id: int) -> Tuple[float, float]:
        """Simulation window of one user — ``(0, duration)`` for CSV."""
        return (0.0, self.duration)

    def n_packets(self, user_id: int) -> int:
        """Total packet rows of one user (known from the prepass)."""
        return self._counts[user_id]

    @staticmethod
    def _read(path: Path, registry: AppRegistry, **options) -> Iterator:
        """``_packet_reader``'s blocks, with trace defects as StreamError."""
        try:
            yield from _packet_reader(path, registry, **options)
        except TraceError as exc:
            raise StreamError(f"malformed packet row: {exc}") from exc

    @staticmethod
    def _check_order(path: Path, line_numbers, ts: np.ndarray, last_ts: float) -> float:
        """The last of ``ts``, once checked to follow ``last_ts`` in order."""
        previous = np.concatenate(([last_ts], ts[:-1]))
        behind = np.flatnonzero(ts < previous)
        if len(behind):
            # Line numbers, not surviving-row ordinals: with quarantine
            # dropping rows the two diverge, and "sort the file" advice
            # must point at the actual file line.
            i = behind[0]
            raise StreamError(
                f"{path.name}:{line_numbers[i]}: packets not time-sorted "
                f"(t={float(ts[i])} after t={float(previous[i])}); "
                "sort the file before streaming it"
            )
        return float(ts[-1])

    def _write_spill(self, path: Path, data: np.ndarray) -> None:
        """Append ``data`` to the spill: a full disk is a StreamError."""
        view = memoryview(data).cast("B")
        try:
            while view:
                view = view[self._spill.write(view) :]
        except OSError as exc:
            raise StreamError(f"{path.name}: cannot spill parsed rows: {exc}") from None

    @staticmethod
    def _drop_silently(error: Exception) -> None:
        """Re-iteration skip hook: the prepass already recorded the row."""

    def iter_chunks(
        self, user_id: int, skip: int = 0
    ) -> Iterator[PacketArray]:
        """Yield one user's packets as state-labelled, bounded chunks.

        ``skip`` drops that many leading (surviving) rows — how a
        resumed run seeks past packets its checkpoint already accounted
        for. Chunks are read back from the prepass's spill, each at its
        own offset; while a fault plan is armed, and only then, the CSV
        is parsed again: the one CSV iteration wired to the
        ``io.packet_row`` fault site.
        """
        packets_path, _ = self._files[user_id - 1]
        events = self._events[user_id]
        if faults.active_plan() is not None:
            on_bad = self._drop_silently if self._quarantine_rows else None
            blocks = self._read(packets_path, self.registry, on_bad_row=on_bad, inject=True)
            chunks = (packets for _, packets in blocks)
            for chunk in self._rechunked(chunks, self.chunk_size, skip):
                yield self._labelled(chunk, events)
            return
        size, first = PACKET_DTYPE.itemsize, self._first[user_id]
        end = first + self._counts[user_id] * size
        for start in range(first + skip * size, end, self.chunk_size * size):
            want = min(self.chunk_size * size, end - start)
            buffer = os.pread(self._spill.fileno(), want, start)
            if len(buffer) != want:
                raise StreamError(f"{packets_path.name}: spilled packets cut short")
            yield self._labelled(PacketArray.from_buffer(buffer), events)

    @staticmethod
    def _rechunked(arrays, size: int, skip: int = 0) -> Iterator[PacketArray]:
        """``arrays``' records, less the first ``skip``, in chunks of ``size``."""
        held: List[PacketArray] = []
        n_held = 0
        for packets in arrays:
            if skip:
                dropped = min(skip, len(packets))
                packets = packets[dropped:]
                skip -= dropped
            held.append(packets)
            n_held += len(packets)
            if n_held < size:
                continue
            packets = PacketArray.concat(held)
            full = n_held - n_held % size
            for start in range(0, full, size):
                yield packets[start : start + size]
            held = [packets[full:]]
            n_held -= full
        if n_held:
            yield PacketArray.concat(held)

    @staticmethod
    def _labelled(chunk: PacketArray, events: EventLog) -> PacketArray:
        # Labelling is elementwise (per-app searchsorted against the
        # full event log), so labelling chunk-by-chunk writes the exact
        # labels the batch reader's whole-trace pass would.
        label_packet_states(chunk, events)
        return chunk

    def signature(self) -> str:
        """Digest binding a checkpoint to these files and settings."""
        payload = json.dumps(
            {
                "kind": "csv",
                "files": [
                    [str(p), str(e) if e is not None else None]
                    for p, e in self._files
                ],
                "duration": self.duration,
            }
        )
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=12
        ).hexdigest()


class NpzStreamSource:
    """Stream per-user packets out of a saved dataset archive.

    Reads the archive the way :meth:`repro.trace.dataset.Dataset.load`
    does — JSON header member for registry, users and windows — but
    never materialises a packet table: each ``packets_<uid>`` member is
    opened as a compressed zip stream, its ``.npy`` header parsed, and
    records are pulled ``chunk_size`` rows at a time. Peak memory is one
    chunk, not one trace. Stored packets already carry their state
    labels, so chunks need no relabelling.
    """

    def __init__(
        self, path: PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> None:
        if chunk_size < 1:
            raise StreamError(f"chunk_size must be >= 1: {chunk_size}")
        self.path = Path(path)
        self.chunk_size = int(chunk_size)
        #: Always empty for archives (binary members are all-or-nothing,
        #: there is no row-level quarantine); present so ingest can
        #: flush any source's quarantine uniformly.
        self.quarantine = RowQuarantine()
        self._counts: Dict[int, int] = {}
        try:
            with _open_archive(self.path) as archive:
                self.registry, entries, _ = _read_header(archive, self.path)
                for uid, _, _ in entries:
                    with self._packets(archive.zip, uid) as (_, rows, _):
                        self._counts[uid] = rows
        except TraceError as exc:
            raise StreamError(str(exc)) from None
        self._users = {uid: (start, end) for uid, start, end in entries}
        self._order = [uid for uid, _, _ in entries]

    @property
    def user_ids(self) -> List[int]:
        """User ids in archive (= dataset) order."""
        return list(self._order)

    def window(self, user_id: int) -> Tuple[float, float]:
        """One user's stored observation window."""
        return self._users[user_id]

    def n_packets(self, user_id: int) -> int:
        """Stored packet count of one user (from the .npy header)."""
        return self._counts[user_id]

    def iter_chunks(
        self, user_id: int, skip: int = 0
    ) -> Iterator[PacketArray]:
        """Yield one user's packets in bounded chunks, decompressing
        ``chunk_size`` records at a time straight off the archive.

        A timestamp that is not finite, a direction other than uplink or
        downlink, or a state label that is neither a
        :class:`~repro.trace.events.ProcessState` nor unlabelled raises
        :class:`StreamError` naming the archive, the user and the
        member, before its chunk is yielded (:func:`packet_defect`, the
        check :meth:`Dataset.load` runs). So does a member that is
        damaged or cut short.
        """
        with zipfile.ZipFile(self.path) as archive, self._packets(
            archive, user_id
        ) as (raw, total, dtype):
            # The npz.member fault site: an injected "truncate" makes
            # this stream end early, exactly like a cut-short archive;
            # _read_exactly below turns that into StreamError, never a
            # silently short chunk.
            handle = faults.maybe_truncate_stream("npz.member", raw)
            itemsize = dtype.itemsize
            _discard_exactly(handle, skip * itemsize)
            remaining = total - skip
            while remaining > 0:
                rows = min(self.chunk_size, remaining)
                buffer = _read_exactly(handle, rows * itemsize)
                chunk = PacketArray.from_buffer(buffer)
                defect = packet_defect(chunk.data)
                if defect is not None:
                    raise StreamError(
                        f"{self.path.name}: user {user_id}: "
                        f"packets_{user_id}: {defect}"
                    )
                remaining -= rows
                yield chunk

    @contextmanager
    def _packets(self, archive: zipfile.ZipFile, user_id: int):
        """One user's packets member of the open ``archive``, read past
        its ``.npy`` header: ``(handle, rows, dtype)``. A member that is
        missing, damaged, cut short or of another layout is a
        :class:`StreamError` naming the archive, the user and the
        member."""
        name = f"packets_{user_id}"
        try:
            with archive.open(f"{name}.npy") as handle:
                shape, dtype = _read_npy_header(handle)
                yield handle, int(shape[0]), dtype
        except KeyError:
            raise StreamError(f"{self.path.name}: no member {name!r}") from None
        except (
            TraceError, ValueError, EOFError, zipfile.BadZipFile, zlib.error
        ) as exc:
            raise StreamError(
                f"{self.path.name}: user {user_id}: {name}: {exc}"
            ) from None

    def signature(self) -> str:
        """Digest binding a checkpoint to this archive."""
        payload = json.dumps(
            {
                "kind": "npz",
                "path": str(self.path),
                "users": [[uid, self._counts[uid]] for uid in self._order],
            }
        )
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=12
        ).hexdigest()


StreamSource = Union[CsvStreamSource, NpzStreamSource]


def _read_npy_header(handle) -> Tuple[tuple, np.dtype]:
    """Parse one ``.npy`` member's header off a zip stream.

    Leaves the stream positioned at the first data byte and validates
    the layout a packet table must have (C-order records of
    :data:`~repro.trace.arrays.PACKET_DTYPE`): :class:`TraceError` if
    it is another.
    """
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
    else:
        raise TraceError(f"unsupported .npy version {version}")
    if fortran:
        raise TraceError("Fortran-order arrays not supported")
    if dtype != PACKET_DTYPE:
        raise TraceError(
            f"expected packet dtype {PACKET_DTYPE}, got {dtype}"
        )
    return shape, dtype


def _read_exactly(handle, n_bytes: int) -> bytes:
    """Read exactly ``n_bytes`` off a (possibly short-reading) stream."""
    parts = []
    remaining = n_bytes
    while remaining > 0:
        piece = handle.read(remaining)
        if not piece:
            raise EOFError("truncated packet member in archive")
        parts.append(piece)
        remaining -= len(piece)
    return b"".join(parts)


def _discard_exactly(handle, n_bytes: int) -> None:
    """Skip ``n_bytes`` of a compressed stream in bounded pieces."""
    remaining = n_bytes
    while remaining > 0:
        piece = handle.read(min(remaining, 1 << 20))
        if not piece:
            raise EOFError("truncated packet member in archive")
        remaining -= len(piece)
