"""Raw device-log parser.

Reconstructs traces from the logs written by
:mod:`repro.collect.logs` (or by anything producing the same format).
Packets are mapped to apps through the socket log; connections with no
socket record — lost mappings, or traffic genuinely issued by opaque
system processes — are attributed to the :data:`UNKNOWN_APP` bucket,
which mirrors the paper's handling of requests delegated to system
services ("we label this traffic according to the service from which it
originated").

Logs are read as UTF-8. A malformed line — the wrong number of fields,
a field that does not parse (a non-finite timestamp included), an
unknown process state, a screen value other than ``ON``/``OFF`` or a
byte that is not valid UTF-8 — raises :class:`TraceError` naming the
log and line (``process.log:7: ...``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.errors import TraceError
from repro.collect.logs import (
    INPUT_LOG,
    PACKETS_LOG,
    PROCESS_LOG,
    SCREEN_LOG,
    SOCKETS_LOG,
)
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry, Dataset
from repro.trace.events import (
    EventLog,
    ProcessState,
    ProcessStateEvent,
    ScreenEvent,
    UserInputEvent,
)
from repro.trace.io_text import parse_timestamp, parse_uint32, undecodable
from repro.trace.packet import Direction
from repro.trace.trace import UserTrace
from repro.units import DAY

PathLike = Union[str, Path]

#: Registry name for traffic whose process mapping was lost.
UNKNOWN_APP = "system.unattributed"

_DIRECTIONS = {"U": int(Direction.UPLINK), "D": int(Direction.DOWNLINK)}

_SCREEN_VALUES = {"ON": True, "OFF": False}


def _app_id(registry: AppRegistry, name: str) -> int:
    if name in registry:
        return registry.id_of(name)
    return registry.register(name).app_id


def _parse_log(path: Path, n_fields: int, parse: Callable) -> list:
    """``parse(*fields)`` of every line of one log, in file order (none
    if the log does not exist)."""
    rows: list = []
    if not path.exists():
        return rows
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            try:
                if undecodable(line):
                    raise TraceError("line is not valid UTF-8")
                fields = line.split()
                if len(fields) != n_fields:
                    raise TraceError(
                        f"expected {n_fields} fields, got {line!r}"
                    )
                rows.append(parse(*fields))
            except KeyError as exc:
                where = f"{path.name}:{number}"
                raise TraceError(f"{where}: unknown value {exc}") from None
            except (TraceError, ValueError) as exc:
                raise TraceError(f"{path.name}:{number}: {exc}") from None
    return rows


def _read_sockets(path: Path, registry: AppRegistry) -> Dict[int, int]:
    rows = _parse_log(
        path, 3, lambda _ts, conn, app: (parse_uint32(conn, "conn"), app)
    )
    return {conn: _app_id(registry, app) for conn, app in rows}


def _read_packets(
    path: Path, conn_to_app: Dict[int, int], registry: AppRegistry
) -> PacketArray:
    if not path.exists():
        raise TraceError(f"missing packet log {path}")
    rows = _parse_log(
        path,
        4,
        lambda ts, conn, direction, size: (
            parse_timestamp(ts),
            parse_uint32(conn, "conn"),
            _DIRECTIONS[direction],
            parse_uint32(size, "size"),
        ),
    )
    times, conns, dirs, sizes = zip(*rows) if rows else ((),) * 4
    unknown_id: Optional[int] = None
    apps = np.empty(len(times), dtype=np.uint16)
    for i, conn in enumerate(conns):
        app = conn_to_app.get(conn)
        if app is None:
            if unknown_id is None:
                unknown_id = _app_id(registry, UNKNOWN_APP)
            app = unknown_id
        apps[i] = app
    packets = PacketArray.from_columns(
        np.array(times),
        np.array(sizes, dtype=np.uint32),
        np.array(dirs, dtype=np.uint8),
        apps,
        np.array(conns, dtype=np.uint32),
    )
    return packets.sorted_by_time()


def _read_events(directory: Path, registry: AppRegistry) -> EventLog:
    process = _parse_log(
        directory / PROCESS_LOG,
        3,
        lambda ts, app, state: (parse_timestamp(ts), app, ProcessState[state]),
    )
    screen = _parse_log(
        directory / SCREEN_LOG,
        2,
        lambda ts, on: ScreenEvent(parse_timestamp(ts), _SCREEN_VALUES[on]),
    )
    inputs = _parse_log(
        directory / INPUT_LOG, 2, lambda ts, app: (parse_timestamp(ts), app)
    )
    return EventLog(
        [
            ProcessStateEvent(ts, _app_id(registry, app), state)
            for ts, app, state in process
        ],
        screen,
        [UserInputEvent(ts, _app_id(registry, app)) for ts, app in inputs],
    )


def read_device_logs(
    directory: PathLike,
    registry: Optional[AppRegistry] = None,
    user_id: int = 1,
    duration: Optional[float] = None,
) -> UserTrace:
    """Parse one device's raw log directory into a trace."""
    directory = Path(directory)
    registry = registry if registry is not None else AppRegistry()
    conn_to_app = _read_sockets(directory / SOCKETS_LOG, registry)
    packets = _read_packets(directory / PACKETS_LOG, conn_to_app, registry)
    events = _read_events(directory, registry)
    horizon = float(packets.timestamps[-1]) if len(packets) else 0.0
    horizon = max(horizon, events.last_timestamp)
    if duration is None:
        duration = float(np.ceil(horizon / DAY) * DAY) or DAY
    return UserTrace(user_id, 0.0, duration, packets, events)


def parse_dataset(
    root: PathLike, duration: Optional[float] = None
) -> Dataset:
    """Parse a ``collect_dataset`` tree back into a labelled dataset."""
    root = Path(root)
    directories = sorted(d for d in root.iterdir() if d.is_dir())
    if not directories:
        raise TraceError(f"no device log directories under {root}")
    registry = AppRegistry()
    users = []
    for index, directory in enumerate(directories, start=1):
        users.append(
            read_device_logs(directory, registry, user_id=index, duration=duration)
        )
    if duration is None:
        # Align every user to the longest observed window.
        longest = max(u.end for u in users)
        users = [
            UserTrace(u.user_id, 0.0, longest, u.packets, u.events) for u in users
        ]
    dataset = Dataset(registry, users, metadata={"source": "raw-logs"})
    dataset.label_states()
    return dataset
