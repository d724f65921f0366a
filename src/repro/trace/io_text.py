"""Text (CSV) interchange for traces.

The synthetic generator is a stand-in for real collection software; a
downstream user with actual packet/process logs (tcpdump + procfs, the
paper's own pipeline) can feed them to every analysis through this
module. Two simple CSV schemas:

Packets — header ``timestamp,size,direction,app,conn``::

    12.531,1448,down,com.android.chrome,17
    12.540,60,up,com.android.chrome,17

``direction`` accepts ``up``/``down``/``uplink``/``downlink``/``0``/``1``.

Events — header ``timestamp,kind,app,value``::

    10.0,process,com.android.chrome,foreground
    95.2,process,com.android.chrome,background
    95.2,screen,,off
    12.0,input,com.android.chrome,

Process-state values are the :class:`~repro.trace.events.ProcessState`
names (case-insensitive); screen values are ``on``/``off``.

Both are read and written as UTF-8. A byte that is not valid UTF-8
makes its row malformed — a :class:`~repro.errors.TraceError` naming
the file and line, or a quarantined row — and makes a header an error.
So does a timestamp that is not finite (``inf``, ``nan``).
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from itertools import islice, repeat
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import faults
from repro.errors import TraceError
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry, Dataset
from repro.trace.events import (
    EventLog,
    ProcessState,
    ProcessStateEvent,
    ScreenEvent,
    UserInputEvent,
)
from repro.trace.packet import Direction
from repro.trace.trace import UserTrace

PathLike = Union[str, Path]

_DIRECTIONS = {
    "up": Direction.UPLINK,
    "uplink": Direction.UPLINK,
    "0": Direction.UPLINK,
    "down": Direction.DOWNLINK,
    "downlink": Direction.DOWNLINK,
    "1": Direction.DOWNLINK,
}


def _parse_direction(token: str) -> Direction:
    try:
        return _DIRECTIONS[token.strip().lower()]
    except KeyError:
        raise TraceError(f"unknown packet direction {token!r}") from None


def _app_id(registry: AppRegistry, name: str) -> int:
    name = name.strip()
    if not name:
        raise TraceError("packet/event row with empty app name")
    if name in registry:
        return registry.id_of(name)
    return registry.register(name).app_id


#: One parsed packets-CSV row: (timestamp, size, direction, app id, conn).
PacketRow = Tuple[float, int, int, int, int]

#: The packets-CSV schema's required columns.
PACKET_COLUMNS = frozenset({"timestamp", "size", "direction", "app"})

#: Largest size or conn a packet record holds (both are ``uint32``).
_UINT32_MAX = 0xFFFFFFFF

#: Lines per block of :func:`iter_packet_blocks`: enough to amortise
#: the per-block work, few enough that a block's token lists add
#: nothing measurable to peak memory.
_BLOCK_LINES = 2048

#: What a byte that is not valid UTF-8 decodes to under
#: ``errors="surrogateescape"``: a lone surrogate.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def undecodable(text: str) -> bool:
    """True if ``text``, decoded with ``errors="surrogateescape"``, held
    a byte that is not valid UTF-8.

    Decoding that way never raises, so one bad byte costs its own row
    instead of the whole read; this one C-level scan (none at all for
    ASCII text) finds the row.
    """
    return not text.isascii() and _ESCAPED_BYTE.search(text) is not None


def parse_timestamp(token) -> float:
    """``float(token)``, refusing a non-finite value with
    :class:`TraceError`: an ``inf`` or ``nan`` time is a malformed row,
    not a number to compute with."""
    value = float(token)
    if not math.isfinite(value):
        raise TraceError(f"non-finite timestamp {value}")
    return value


def parse_uint32(token, field: str) -> int:
    """``int(token)``, refusing a value outside a packet record's
    ``uint32`` size and conn columns with :class:`TraceError`."""
    value = int(token)
    if not 0 <= value <= _UINT32_MAX:
        raise TraceError(f"packet {field} out of range: {value}")
    return value


def parse_packet_fields(row, registry: AppRegistry) -> PacketRow:
    """Parse one raw packets-CSV row dict into a :data:`PacketRow`.

    The per-row parse behind :func:`iter_packet_rows` and the live tail
    (:class:`repro.follow.TailCsvSource`); the block fast path of
    :func:`iter_packet_blocks` applies the same casts column by column.
    Field order matters: timestamp, size and direction parse *before*
    the app name registers, so a row rejected on those fields leaves
    the registry untouched and surviving rows get identical app ids
    everywhere. Raises :class:`TraceError` (or ``ValueError``/
    ``TypeError`` from the numeric casts) on a malformed row, including
    a non-finite timestamp and a size or conn that does not fit a
    packet record.
    """
    return (
        parse_timestamp(row["timestamp"]),
        parse_uint32(row["size"], "size"),
        int(_parse_direction(row["direction"])),
        _app_id(registry, row["app"]),
        parse_uint32(row.get("conn") or 0, "conn"),
    )


class _Lines:
    """A CSV's lines, shared by its ``csv`` reader and the packets block
    fast path.

    The fast path takes lines straight off the file; lines it hands back
    (:meth:`unread`) are what the ``csv`` reader sees next. ``bypassed``
    counts the lines the ``csv`` reader never saw, so its ``line_num``
    plus ``bypassed`` is the true file line. A line the ``csv`` reader
    gets that is not valid UTF-8 is held against the record it ends up
    in, until :meth:`check_decoded`.
    """

    def __init__(self, handle) -> None:
        self._handle = handle
        self._unread: List[str] = []
        self.bypassed = 0
        self._undecodable = False

    def __iter__(self) -> "_Lines":
        return self

    def __next__(self) -> str:
        line = self._unread.pop() if self._unread else next(self._handle)
        if undecodable(line):
            self._undecodable = True
        return line

    def check_decoded(self, what: str = "row") -> None:
        """Raise :class:`TraceError` if the record just read held a byte
        that is not valid UTF-8."""
        if self._undecodable:
            self._undecodable = False
            raise TraceError(f"{what} is not valid UTF-8")

    def take(self, n: int) -> List[str]:
        return list(islice(self._handle, n))

    def unread(self, lines: List[str]) -> None:
        self._unread = lines[::-1]

    @property
    def drained(self) -> bool:
        """True once the ``csv`` reader has read every handed-back line."""
        return not self._unread


@contextmanager
def _open_csv(path: Path, kind: str, required: frozenset):
    """Open a UTF-8 CSV: its ``DictReader`` (header checked) and lines."""
    with open(
        path, newline="", encoding="utf-8", errors="surrogateescape"
    ) as handle:
        lines = _Lines(handle)
        reader = csv.DictReader(lines)
        fieldnames = reader.fieldnames
        try:
            lines.check_decoded(f"{kind} CSV header")
        except TraceError as exc:
            raise TraceError(f"{path.name}:{reader.line_num}: {exc}") from None
        if fieldnames is None or not required.issubset(fieldnames):
            raise TraceError(
                f"{path.name}: {kind} CSV must have columns "
                f"{sorted(required)}, got {fieldnames}"
            )
        yield reader, lines


def _row_path(
    path: Path,
    reader: csv.DictReader,
    lines: _Lines,
    registry: AppRegistry,
    on_bad_row: Optional[Callable[[TraceError], None]],
    inject: bool,
) -> Iterator[Tuple[int, PacketRow]]:
    """The per-row path: ``(line_number, row)`` for each good row."""
    for row in reader:
        if inject:
            spec = faults.fire("io.packet_row")
            if spec is not None and spec.action == "corrupt":
                row = faults.corrupt_row(row)
        line_num = reader.line_num + lines.bypassed
        try:
            lines.check_decoded()
            parsed = parse_packet_fields(row, registry)
        except (TraceError, ValueError, TypeError) as exc:
            error = TraceError(f"{path.name}:{line_num}: {exc}")
            if on_bad_row is not None:
                on_bad_row(error)
                continue
            raise error from None
        yield line_num, parsed


def iter_packet_rows(
    path: PathLike,
    registry: AppRegistry,
    on_bad_row: Optional[Callable[[TraceError], None]] = None,
    inject: bool = False,
    with_line_numbers: bool = False,
) -> Iterator[PacketRow]:
    """Lazily parse a packets CSV, one row at a time.

    The per-row path: the reference :func:`iter_packet_blocks` is
    tested against, and its fallback for any block it cannot take
    whole. Unseen app names register in file order. Malformed rows
    raise :class:`TraceError` naming the file and line number — unless
    ``on_bad_row`` is given, which receives that error and the iterator
    moves on (the row-quarantine hook). Timestamp, size and direction
    parse before the app name registers, so a row quarantined on those
    fields leaves the registry untouched and surviving rows get
    identical app ids.

    ``inject`` opts this iteration into the ``io.packet_row`` fault
    site (:mod:`repro.faults`); batch reads never inject, so the
    fault-free reference numbers cannot be perturbed by an armed plan.

    ``with_line_numbers`` yields ``(line_number, row)`` pairs instead
    of bare rows, so a caller diagnosing a defect *between* rows (e.g.
    an out-of-order timestamp) can point at the actual file line even
    when quarantined rows were dropped along the way.
    """
    path = Path(path)
    with _open_csv(path, "packets", PACKET_COLUMNS) as (reader, lines):
        for line_num, row in _row_path(
            path, reader, lines, registry, on_bad_row, inject
        ):
            yield (line_num, row) if with_line_numbers else row


class PacketBlock(NamedTuple):
    """Consecutive good rows of a packets CSV, as columns."""

    #: File line of each row (``int64``).
    line_numbers: np.ndarray
    #: The rows in file order, state-unlabelled.
    packets: PacketArray


def iter_packet_blocks(
    path: PathLike,
    registry: AppRegistry,
    on_bad_row: Optional[Callable[[TraceError], None]] = None,
    inject: bool = False,
) -> Iterator[PacketBlock]:
    """Parse a packets CSV in blocks of about 2,048 lines.

    Every packets reader — batch and streaming — goes through here.
    Yields exactly the rows of :func:`iter_packet_rows` — the same
    values, app registration order, errors, line numbers and
    ``on_bad_row`` calls — as column blocks, several times faster. A
    block with no ``"``, NUL or byte that is not valid UTF-8, no line
    over ``csv``'s field limit and exactly the header's field count on
    every line (so no blank line) is split and cast column by column
    with Python's own ``float``/``int``; directions and app names
    resolve once per distinct token, and new apps register in
    first-appearance order only once the whole block has parsed. Any
    other block, or one whose casts fail or give a non-finite
    timestamp, goes to the per-row path, which reads on past the
    block's end when a quoted record or blank line spans it. A row
    error there first yields the good rows before it, so a consumer
    sees the same prefix as row by row.

    ``inject`` is :func:`iter_packet_rows`'s fault-site opt-in; while a
    fault plan is armed every block takes the per-row path, so
    ``io.packet_row`` hits land on the same rows.
    """
    path = Path(path)
    per_row = inject and faults.active_plan() is not None
    with _open_csv(path, "packets", PACKET_COLUMNS) as (reader, lines):
        fields = reader.fieldnames
        # A DictReader row keeps the last of duplicated columns.
        columns = {name: i for i, name in enumerate(fields)}
        rows = _row_path(path, reader, lines, registry, on_bad_row, inject)
        while True:
            block = lines.take(_BLOCK_LINES)
            if not block:
                return
            packets = None if per_row else _parse_block(
                block, len(fields), columns, registry
            )
            if packets is not None:
                first = reader.line_num + lines.bypassed + 1
                lines.bypassed += len(block)
                yield PacketBlock(
                    np.arange(first, first + len(block), dtype=np.int64),
                    packets,
                )
                continue
            lines.unread(block)
            parsed: List[Tuple[int, PacketRow]] = []
            try:
                for item in rows:
                    parsed.append(item)
                    if lines.drained:
                        break
            except TraceError:
                if parsed:
                    yield _block_from_rows(parsed)
                raise
            if parsed:
                yield _block_from_rows(parsed)


def _parse_block(
    block: List[str],
    n_fields: int,
    columns: Dict[str, int],
    registry: AppRegistry,
) -> Optional[PacketArray]:
    """The fast path: a block of plain lines as columns, or ``None``."""
    text = "".join(block)
    if (
        '"' in text
        or "\0" in text
        or undecodable(text)
        or max(map(len, block)) > csv.field_size_limit()
        or set(map(str.count, block, repeat(","))) != {n_fields - 1}
    ):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    tokens = text.replace("\n", ",").split(",")
    n = len(block)

    def column(name: str) -> List[str]:
        return tokens[columns[name]::n_fields]

    try:
        timestamps = np.fromiter(
            map(float, column("timestamp")), np.float64, n
        )
        if not np.isfinite(timestamps).all():
            return None
        sizes = _uint32_column(column("size"), n)
        direction = column("direction")
        codes = {t: int(_parse_direction(t)) for t in set(direction)}
        directions = np.fromiter(
            map(codes.__getitem__, direction), np.uint8, n
        )
        conns = None
        if "conn" in columns:
            conn = column("conn")
            if "" in conn:
                conn = [t or "0" for t in conn]
            conns = _uint32_column(conn, n)
    except (TraceError, ValueError, OverflowError):
        return None
    app = column("app")
    names = dict.fromkeys(app)
    if not all(map(str.strip, names)):
        return None
    ids = {token: _app_id(registry, token) for token in names}
    apps = np.fromiter(map(ids.__getitem__, app), np.uint16, n)
    return PacketArray.from_columns(
        timestamps, sizes, directions, apps, conns
    )


def _uint32_column(tokens: List[str], n: int) -> np.ndarray:
    """``int`` of each token; ``OverflowError`` if one is out of range."""
    values = np.fromiter(map(int, tokens), np.int64, n)
    if values.min() < 0 or values.max() > _UINT32_MAX:
        raise OverflowError("value out of uint32 range")
    return values.astype(np.uint32)


def _block_from_rows(parsed: List[Tuple[int, PacketRow]]) -> PacketBlock:
    line_numbers, rows = zip(*parsed)
    times, sizes, directions, apps, conns = zip(*rows)
    return PacketBlock(
        np.array(line_numbers, dtype=np.int64),
        PacketArray.from_columns(
            np.array(times, dtype=np.float64),
            np.array(sizes, dtype=np.uint32),
            np.array(directions, dtype=np.uint8),
            np.array(apps, dtype=np.uint16),
            np.array(conns, dtype=np.uint32),
        ),
    )


def read_packets_csv(path: PathLike, registry: AppRegistry) -> PacketArray:
    """Read a packets CSV, registering unseen app names.

    Returns a time-sorted :class:`PacketArray`.
    """
    blocks = [block.packets for block in iter_packet_blocks(path, registry)]
    return PacketArray.concat(blocks).sorted_by_time()


#: One parsed events-CSV row, tagged by kind.
EventRow = Tuple[str, object]

#: The events-CSV schema's required columns.
EVENT_COLUMNS = frozenset({"timestamp", "kind"})


def iter_event_rows(
    path: PathLike, registry: AppRegistry
) -> Iterator[EventRow]:
    """Lazily parse an events CSV into ``(kind, event)`` pairs.

    ``kind`` is ``"process"``/``"screen"``/``"input"``; ``event`` is the
    matching :mod:`repro.trace.events` record. Shared by the batch and
    streaming readers; malformed rows raise :class:`TraceError` naming
    the file and line number.
    """
    path = Path(path)
    with _open_csv(path, "events", EVENT_COLUMNS) as (reader, lines):
        for row in reader:
            try:
                lines.check_decoded()
                yield _parse_event_row(row, registry)
            except (TraceError, ValueError, TypeError) as exc:
                raise TraceError(
                    f"{path.name}:{reader.line_num}: {exc}"
                ) from None


def _parse_event_row(row, registry: AppRegistry) -> EventRow:
    timestamp = parse_timestamp(row["timestamp"])
    kind = row["kind"].strip().lower()
    if kind == "process":
        state_name = (row.get("value") or "").strip().upper()
        try:
            state = ProcessState[state_name]
        except KeyError:
            raise TraceError(
                f"unknown process state {row.get('value')!r}"
            ) from None
        return kind, ProcessStateEvent(
            timestamp, _app_id(registry, row.get("app") or ""), state
        )
    if kind == "screen":
        value = (row.get("value") or "").strip().lower()
        if value not in ("on", "off"):
            raise TraceError(f"screen value must be on/off, got {value!r}")
        return kind, ScreenEvent(timestamp, value == "on")
    if kind == "input":
        return kind, UserInputEvent(
            timestamp, _app_id(registry, row.get("app") or "")
        )
    raise TraceError(f"unknown event kind {row['kind']!r}")


def read_events_csv(path: PathLike, registry: AppRegistry) -> EventLog:
    """Read an events CSV (process/screen/input streams)."""
    streams: Dict[str, list] = {"process": [], "screen": [], "input": []}
    for kind, event in iter_event_rows(path, registry):
        streams[kind].append(event)
    return EventLog(streams["process"], streams["screen"], streams["input"])


def dataset_from_csv(
    user_files: Sequence[Tuple[PathLike, Optional[PathLike]]],
    duration: Optional[float] = None,
    registry: Optional[AppRegistry] = None,
) -> Dataset:
    """Build a dataset from per-user (packets CSV, events CSV) pairs.

    Args:
        user_files: One ``(packets_csv, events_csv_or_None)`` per user;
            user ids are assigned 1..N in order.
        duration: Observation window length; defaults to the latest
            packet/event time across users, rounded up to a whole day.
        registry: Existing registry to extend; a fresh one by default.

    Packets are state-labelled from the event streams before return.
    """
    if not user_files:
        raise TraceError("at least one user is required")
    registry = registry if registry is not None else AppRegistry()
    parsed: List[Tuple[PacketArray, EventLog]] = []
    horizon = 0.0
    for packets_path, events_path in user_files:
        packets = read_packets_csv(packets_path, registry)
        events = (
            read_events_csv(events_path, registry)
            if events_path is not None
            else EventLog()
        )
        if len(packets):
            horizon = max(horizon, float(packets.timestamps[-1]))
        horizon = max(horizon, events.last_timestamp)
        parsed.append((packets, events))
    if duration is None:
        duration = float(np.ceil(horizon / 86400.0) * 86400.0) or 86400.0
    users = [
        UserTrace(uid, 0.0, duration, packets, events)
        for uid, (packets, events) in enumerate(parsed, start=1)
    ]
    dataset = Dataset(registry, users, metadata={"source": "csv"})
    dataset.label_states()
    return dataset


def write_packets_csv(
    path: PathLike, packets: PacketArray, registry: AppRegistry
) -> None:
    """Write a packets CSV readable by :func:`read_packets_csv`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "size", "direction", "app", "conn"])
        for rec in packets.data:
            writer.writerow(
                [
                    repr(float(rec["timestamp"])),
                    int(rec["size"]),
                    "up" if int(rec["direction"]) == int(Direction.UPLINK) else "down",
                    registry.name_of(int(rec["app"])),
                    int(rec["conn"]),
                ]
            )


def write_events_csv(
    path: PathLike, events: EventLog, registry: AppRegistry
) -> None:
    """Write an events CSV readable by :func:`read_events_csv`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "kind", "app", "value"])
        for timestamp, app, state in events.process.tolist():
            writer.writerow(
                [
                    repr(timestamp),
                    "process",
                    registry.name_of(app),
                    ProcessState(state).name.lower(),
                ]
            )
        for timestamp, on in events.screen.tolist():
            writer.writerow([repr(timestamp), "screen", "", "on" if on else "off"])
        for timestamp, app in events.input.tolist():
            writer.writerow([repr(timestamp), "input", registry.name_of(app), ""])
