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
So does a timestamp that is not finite (``inf``, ``nan``), and a field
longer than :func:`csv.field_size_limit`.
"""

from __future__ import annotations

import csv
import io
import math
import re
from contextlib import contextmanager
from itertools import compress, islice, repeat
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
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


def _parse_direction(token: Optional[str]) -> Direction:
    try:
        return _DIRECTIONS[(token or "").strip().lower()]
    except KeyError:
        raise TraceError(f"unknown packet direction {token!r}") from None


def _app_id(registry: AppRegistry, name: Optional[str]) -> int:
    name = (name or "").strip()
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

    The per-row parse behind :func:`iter_packet_rows`; the block fast
    path of :func:`iter_packet_blocks` applies the same casts column by
    column.
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
    """A CSV's lines, shared by its ``csv`` reader and the block fast
    path.

    The fast path takes lines straight off the file; lines it hands back
    (:meth:`unread`) are what the ``csv`` reader sees next. ``bypassed``
    counts the lines the ``csv`` reader never saw, so its ``line_num``
    plus ``bypassed`` is the true file line. A line the ``csv`` reader
    gets that is not valid UTF-8 is held against the record it ends up
    in, until :meth:`check_decoded`. ``ended`` turns true once the
    ``csv`` reader asks for a line past the last; ``span`` marks the
    lines of a span (:func:`_open_csv`), whose end may cut a record.
    """

    def __init__(self, handle, span: bool = False) -> None:
        self._handle = handle
        self._unread: List[str] = []
        self.bypassed = 0
        self._undecodable = False
        self.span = span
        self.ended = False

    def __iter__(self) -> "_Lines":
        return self

    def __next__(self) -> str:
        line = self._unread.pop() if self._unread else next(self._handle, None)
        if line is None:
            self.ended = True
            raise StopIteration
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


def _line_ends(data: bytes) -> np.ndarray:
    """Where ``data``'s lines end as the readers split lines: at each
    ``\\n``, and each ``\\r`` that no ``\\n`` follows."""
    raw = np.frombuffer(data, np.uint8)
    ends = raw == 10
    ends[:-1] |= (raw[:-1] == 13) & ~ends[1:]
    return np.flatnonzero(ends)


@contextmanager
def _open_csv(path: Path, kind: str, required: frozenset, span: Optional[tuple] = None):
    """Open a UTF-8 CSV: its ``DictReader`` (header checked) and lines.
    Given a ``span``, ``(data, skipped)``, read ``data`` instead: the
    file's header line, then whole lines from ``skipped`` lines past it."""
    data, skipped = span or (b"", 0)
    handle = (
        io.StringIO(data.decode("utf-8", "surrogateescape"), newline="")
        if span
        else open(path, newline="", encoding="utf-8", errors="surrogateescape")
    )
    with handle:
        lines = _Lines(handle, span is not None)
        lines.bypassed = skipped
        reader = csv.DictReader(lines)
        try:
            fieldnames = reader.fieldnames
            lines.check_decoded(f"{kind} CSV header")
        except (TraceError, csv.Error) as exc:
            raise TraceError(
                f"{path.name}:{reader.reader.line_num}: {exc}"
            ) from None
        if fieldnames is None or not required.issubset(fieldnames):
            raise TraceError(
                f"{path.name}: {kind} CSV must have columns "
                f"{sorted(required)}, got {fieldnames}"
            )
        yield reader, lines


def _records(
    reader: csv.DictReader, lines: _Lines
) -> Iterator[Union[dict, TraceError]]:
    """``reader``'s row dicts, or for a record the ``csv`` module refuses
    (a field over :func:`csv.field_size_limit`) the :class:`TraceError`
    that makes it a malformed row; ``reader.reader.line_num`` names its
    line. A record the file's end cuts inside quotes is malformed too;
    of a span, whose end may cut it, it is not a record yet."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            row = TraceError(str(exc))
        # The reader asks for a line past the end mid-record only.
        if lines.ended:
            if lines.span:
                return
            row = TraceError("file ends inside a quoted field")
        yield row


def _row_path(
    path: Path,
    reader: csv.DictReader,
    lines: _Lines,
    registry: AppRegistry,
    on_bad_row: Optional[Callable[[TraceError], None]],
    inject: bool,
) -> Iterator[Tuple[int, PacketRow]]:
    """The per-row path: ``(line_number, row)`` for each good row."""
    for row in _records(reader, lines):
        if inject and isinstance(row, dict):
            spec = faults.fire("io.packet_row")
            if spec is not None and spec.action == "corrupt":
                row = faults.corrupt_row(row)
        line_num = reader.reader.line_num + lines.bypassed
        try:
            lines.check_decoded()
            if isinstance(row, TraceError):
                raise row
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


_Parsed = TypeVar("_Parsed")
_Row = TypeVar("_Row")


def _block_loop(
    reader: csv.DictReader,
    lines: _Lines,
    fast: Callable[[List[str], int], Optional[_Parsed]],
    rows: Iterator[_Row],
    gather: Callable[[List[_Row]], _Parsed],
) -> Iterator[_Parsed]:
    """The one block loop of every block reader, for either schema.

    Takes about :data:`_BLOCK_LINES` lines at a time off ``lines`` and
    yields ``fast(block, first_line)`` for each block the fast path
    takes whole. A block it refuses (``None``) is handed back to
    ``rows``, the per-row path over ``reader``, which reads on past the
    block's end when a quoted record or blank line spans it; the rows
    it yields for the block come out as one ``gather(rows)``. A row
    error there first yields the good rows before it, so a consumer
    sees the same prefix as row by row.
    """
    while True:
        block = lines.take(_BLOCK_LINES)
        if not block:
            return
        parsed = fast(block, reader.reader.line_num + lines.bypassed + 1)
        if parsed is not None:
            lines.bypassed += len(block)
            yield parsed
            continue
        lines.unread(block)
        held: List[_Row] = []
        try:
            for item in rows:
                held.append(item)
                if lines.drained:
                    break
        except TraceError:
            if held:
                yield gather(held)
            raise
        if held:
            yield gather(held)


def _split_block(block: List[str], n_fields: int) -> Optional[List[str]]:
    """The fast path's tokenizer: a block of plain lines as one flat
    list of ``n_fields`` tokens per line, or ``None``.

    A plain block has no ``"``, NUL or byte that is not valid UTF-8, no
    line over ``csv``'s field limit and exactly ``n_fields`` fields on
    every line (so no blank line); ``\\r\\n`` and ``\\r`` line ends are
    plain too.
    """
    text = "".join(block)
    limit = csv.field_size_limit()
    if (
        '"' in text
        or "\0" in text
        or undecodable(text)
        or (len(text) > limit and max(map(len, block)) > limit)
        or set(map(str.count, block, repeat(","))) != {n_fields - 1}
    ):
        return None
    if "\r" in text:
        text = text.replace("\r\n", ",").replace("\r", ",")
    tokens = text.replace("\n", ",").split(",")
    if block[-1].endswith(("\n", "\r")):
        tokens.pop()  # the empty "token" after the last line end
    return tokens


def _packet_reader(
    path: PathLike,
    registry: AppRegistry,
    on_bad_row: Optional[Callable[[TraceError], None]] = None,
    inject: bool = False,
    span: Optional[tuple] = None,
) -> Iterator[Tuple[np.ndarray, PacketArray]]:
    """``(line_numbers, packets)`` per block of a packets CSV: see
    :func:`iter_packet_blocks`, whose rows, checks, errors, ``on_bad_row``
    calls and app registration order these are. ``span`` is
    :func:`_open_csv`'s."""
    path = Path(path)
    per_row = inject and faults.active_plan() is not None
    with _open_csv(path, "packets", PACKET_COLUMNS, span) as (reader, lines):
        n_fields = len(reader.fieldnames)
        # A DictReader row keeps the last of duplicated columns.
        columns = {name: i for i, name in enumerate(reader.fieldnames)}

        def fast(block: List[str], first: int):
            tokens = None if per_row else _split_block(block, n_fields)
            if tokens is None:
                return None
            parsed = _packet_columns(tokens, n_fields, columns, registry)
            if parsed is None:
                return None
            return np.arange(first, first + len(block), dtype=np.int64), parsed

        yield from _block_loop(
            reader,
            lines,
            fast,
            _row_path(path, reader, lines, registry, on_bad_row, inject),
            _packets_from_rows,
        )


def iter_packet_blocks(
    path: PathLike,
    registry: AppRegistry,
    on_bad_row: Optional[Callable[[TraceError], None]] = None,
    inject: bool = False,
) -> Iterator[PacketBlock]:
    """Parse a packets CSV in blocks of about 2,048 lines.

    Every packets reader — batch, streaming and the live tail — goes
    through its block reader (:func:`_packet_reader`). Yields exactly the
    rows of :func:`iter_packet_rows` — the same
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
    for line_numbers, packets in _packet_reader(path, registry, on_bad_row, inject):
        yield PacketBlock(line_numbers, packets)


def _packet_columns(
    tokens: List[str],
    n_fields: int,
    columns: Dict[str, int],
    registry: AppRegistry,
) -> Optional[PacketArray]:
    """The fast path's column step: a split block as a
    :class:`PacketArray`, or ``None`` when a cast or range check fails."""
    n = len(tokens) // n_fields

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
    directions = np.fromiter(map(codes.__getitem__, direction), np.uint8, n)
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


def _packets_from_rows(
    parsed: List[Tuple[int, PacketRow]]
) -> Tuple[np.ndarray, PacketArray]:
    line_numbers, rows = zip(*parsed)
    times, sizes, directions, apps, conns = zip(*rows)
    return (
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

#: Event codes (:func:`_event_code`): a process row's code is its
#: :class:`ProcessState`, a screen row's ``_SCREEN_OFF`` plus 1 if on,
#: an input row's ``_INPUT``. ``code >> 3`` is the row's stream as
#: :meth:`EventLog.from_columns` numbers them, ``code & 7`` its value.
_SCREEN_OFF = 8
_INPUT = 16

#: One events-CSV row as the block reader keeps it: (timestamp, event
#: code, app id — 0 for a screen row).
_EventFields = Tuple[float, int, int]


def iter_event_rows(
    path: PathLike, registry: AppRegistry
) -> Iterator[EventRow]:
    """Lazily parse an events CSV into ``(kind, event)`` pairs.

    ``kind`` is ``"process"``/``"screen"``/``"input"``; ``event`` is the
    matching :mod:`repro.trace.events` record. The per-row reference
    :func:`read_events_csv` is tested against; malformed rows raise
    :class:`TraceError` naming the file and line number.
    """
    path = Path(path)
    with _open_csv(path, "events", EVENT_COLUMNS) as (reader, lines):
        for timestamp, code, app in _event_row_path(
            path, reader, lines, registry
        ):
            if code == _INPUT:
                yield "input", UserInputEvent(timestamp, app)
            elif code >= _SCREEN_OFF:
                yield "screen", ScreenEvent(timestamp, code > _SCREEN_OFF)
            else:
                yield "process", ProcessStateEvent(
                    timestamp, app, ProcessState(code)
                )


def _event_row_path(
    path: Path, reader: csv.DictReader, lines: _Lines, registry: AppRegistry
) -> Iterator[_EventFields]:
    """The events per-row path: each row's fields, in file order."""
    for row in _records(reader, lines):
        try:
            lines.check_decoded()
            if isinstance(row, TraceError):
                raise row
            fields = _parse_event_fields(row, registry)
        except (TraceError, ValueError, TypeError) as exc:
            line_num = reader.reader.line_num + lines.bypassed
            raise TraceError(f"{path.name}:{line_num}: {exc}") from None
        yield fields


def _parse_event_fields(row, registry: AppRegistry) -> _EventFields:
    """Parse one raw events-CSV row dict. The time parses first, then
    the kind and value, and the app of a process or input row
    registers last."""
    timestamp = parse_timestamp(row["timestamp"])
    code = _event_code(row["kind"], row.get("value"))
    if _SCREEN_OFF <= code < _INPUT:
        return timestamp, code, 0
    return timestamp, code, _app_id(registry, row.get("app"))


def _event_code(kind: Optional[str], value: Optional[str]) -> int:
    """What an events row's ``kind`` and ``value`` fields say, as one
    event code; :class:`TraceError` if they say nothing valid."""
    name = (kind or "").strip().lower()
    if name == "process":
        try:
            return ProcessState[(value or "").strip().upper()]
        except KeyError:
            raise TraceError(f"unknown process state {value!r}") from None
    if name == "screen":
        value = (value or "").strip().lower()
        if value not in ("on", "off"):
            raise TraceError(f"screen value must be on/off, got {value!r}")
        return _SCREEN_OFF + (value == "on")
    if name == "input":
        return _INPUT
    raise TraceError(f"unknown event kind {kind!r}")


def _event_block(
    tokens: Optional[List[str]],
    n_fields: int,
    columns: Dict[str, int],
    registry: AppRegistry,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The events fast path's column step: a split block as
    ``(timestamps, codes, apps)`` columns, or ``None``.

    Kinds and values resolve once per distinct ``(kind, value)`` pair
    and app names once per distinct name, exactly as
    :func:`_parse_event_fields` resolves them; the apps of process and
    input rows register in first-appearance order only once the whole
    block has parsed, and screen rows register nothing.
    """
    if tokens is None:
        return None
    n = len(tokens) // n_fields

    def column(name: str) -> List[str]:
        # DictReader reads a missing column as None, the row parse as "".
        if name not in columns:
            return [""] * n
        return tokens[columns[name]::n_fields]

    pairs = list(zip(column("kind"), column("value")))
    try:
        timestamps = np.fromiter(
            map(float, column("timestamp")), np.float64, n
        )
        codes = {pair: _event_code(*pair) for pair in set(pairs)}
    except (TraceError, ValueError):
        return None
    if not np.isfinite(timestamps).all():
        return None
    code = np.fromiter(map(codes.__getitem__, pairs), np.uint8, n)
    app = column("app")
    # Stream 1 is the screen: its rows name no app.
    names = dict.fromkeys(compress(app, (code >> 3 != 1).tolist()))
    if not all(map(str.strip, names)):
        return None
    ids = {token: _app_id(registry, token) for token in names}
    apps = np.fromiter(map(ids.get, app, repeat(0)), np.uint16, n)
    return timestamps, code, apps


def _event_columns(
    rows: List[_EventFields],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    timestamps, codes, apps = zip(*rows)
    return (
        np.array(timestamps, dtype=np.float64),
        np.array(codes, dtype=np.uint8),
        np.array(apps, dtype=np.uint16),
    )


def read_events_csv(path: PathLike, registry: AppRegistry) -> EventLog:
    """Read an events CSV (process/screen/input streams).

    Parses in blocks through the packets reader's block loop: a plain
    block (see :func:`iter_packet_blocks`) is split and cast column by
    column, and any other block, or one holding a bad time, kind,
    value or app, is re-read row by row, so events, app registration
    order and errors are exactly :func:`iter_event_rows`'.
    """
    return _read_events(path, registry)


def _read_events(
    path: PathLike, registry: AppRegistry, span: Optional[tuple] = None
) -> EventLog:
    """:func:`read_events_csv`, or of the :func:`_open_csv` ``span``."""
    path = Path(path)
    with _open_csv(path, "events", EVENT_COLUMNS, span) as (reader, lines):
        n_fields = len(reader.fieldnames)
        # A DictReader row keeps the last of duplicated columns.
        columns = {name: i for i, name in enumerate(reader.fieldnames)}
        parts = list(
            _block_loop(
                reader,
                lines,
                lambda block, _: _event_block(
                    _split_block(block, n_fields), n_fields, columns, registry
                ),
                _event_row_path(path, reader, lines, registry),
                _event_columns,
            )
        )
    if not parts:
        return EventLog()
    timestamps, codes, apps = map(np.concatenate, zip(*parts))
    return EventLog.from_columns(timestamps, codes >> 3, apps, codes & 7)


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


#: Rows per write of the CSV writers: one join and one write per block.
_WRITE_ROWS = 8192

#: Each process state's name as the events CSV writes it.
_STATE_NAMES = {int(state): state.name.lower() for state in ProcessState}


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def _write_rows(handle, columns: Sequence[Iterable[str]]) -> None:
    """Write rows of already-quoted fields as ``csv.writer`` would:
    comma-separated, each ended by ``\r\n``, one join per block."""
    rows = map(",".join, zip(*columns))
    while True:
        block = list(islice(rows, _WRITE_ROWS))
        if not block:
            return
        handle.write("\r\n".join(block) + "\r\n")


def write_packets_csv(
    path: PathLike, packets: PacketArray, registry: AppRegistry
) -> None:
    """Write a packets CSV readable by :func:`read_packets_csv`."""
    apps = packets.apps.tolist()
    names = {app: _csv_field(registry.name_of(app)) for app in set(apps)}
    uplink = (packets.directions == int(Direction.UPLINK)).tolist()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("timestamp,size,direction,app,conn\r\n")
        _write_rows(
            handle,
            [
                map(repr, packets.timestamps.tolist()),
                map(str, packets.sizes.tolist()),
                map(("down", "up").__getitem__, uplink),
                map(names.__getitem__, apps),
                map(str, packets.conns.tolist()),
            ],
        )


def write_events_csv(
    path: PathLike, events: EventLog, registry: AppRegistry
) -> None:
    """Write an events CSV readable by :func:`read_events_csv`."""
    process, screen, inputs = events.process, events.screen, events.input
    apps = set(process["app"].tolist()) | set(inputs["app"].tolist())
    names = {app: _csv_field(registry.name_of(app)) for app in apps}
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("timestamp,kind,app,value\r\n")
        _write_rows(
            handle,
            [
                map(repr, process["timestamp"].tolist()),
                repeat("process", len(process)),
                map(names.__getitem__, process["app"].tolist()),
                map(_STATE_NAMES.__getitem__, process["state"].tolist()),
            ],
        )
        _write_rows(
            handle,
            [
                map(repr, screen["timestamp"].tolist()),
                repeat("screen", len(screen)),
                repeat("", len(screen)),
                map(("off", "on").__getitem__, screen["on"].tolist()),
            ],
        )
        _write_rows(
            handle,
            [
                map(repr, inputs["timestamp"].tolist()),
                repeat("input", len(inputs)),
                map(names.__getitem__, inputs["app"].tolist()),
                repeat("", len(inputs)),
            ],
        )
