"""The column CSV writers against a frozen copy of the row loop.

:func:`repro.trace.io_text.write_packets_csv` and
:func:`~repro.trace.io_text.write_events_csv` write joined columns, and
quote each app name once through ``csv.writer``; their bytes must equal
the ``csv.writer.writerow``-per-row loop they replaced, kept verbatim
below: ``\\r\\n`` line ends, and names holding ``,``, ``"``, ``\\r`` or
``\\n`` quoted the same way.
"""

import csv

import numpy as np
import pytest

from repro import StudyConfig, generate_study
from repro.trace.arrays import PACKET_DTYPE, PacketArray
from repro.trace.dataset import AppInfo, AppRegistry
from repro.trace.events import (
    EventLog,
    ProcessState,
    ProcessStateEvent,
    ScreenEvent,
    UserInputEvent,
)
from repro.trace.io_text import (
    dataset_from_csv,
    write_events_csv,
    write_packets_csv,
)
from repro.trace.packet import Direction


def legacy_write_packets_csv(path, packets, registry):
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


def legacy_write_events_csv(path, events, registry):
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


def assert_same_bytes(tmp_path, packets, events, registry):
    pairs = []
    for name, new, old, data in (
        ("p", write_packets_csv, legacy_write_packets_csv, packets),
        ("e", write_events_csv, legacy_write_events_csv, events),
    ):
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.legacy.csv"
        new(got, data, registry)
        old(want, data, registry)
        assert got.read_bytes() == want.read_bytes()
        pairs.append(got)
    return tuple(pairs)


def test_generated_study(tmp_path):
    dataset = generate_study(StudyConfig(n_users=2, duration_days=2.0, seed=11))
    for user in dataset.users:
        assert_same_bytes(tmp_path, user.packets, user.events, dataset.registry)


#: App names ``csv.writer`` quotes, and names it leaves as they are.
NAMES = [
    "plain.app",
    "with,comma",
    'say "hi"',
    "two\nlines",
    "carriage\rreturn",
    "crlf\r\nname",
    '",\r\n"',
    "  leading and trailing  ",
    "\tindented",
    "приложение.日本",
    "emoji 📱",
    "'single'",
    "semi;colon",
]


@pytest.fixture
def awkward():
    registry = AppRegistry(
        [AppInfo(i, name, "other") for i, name in enumerate(NAMES, start=1)]
    )
    n = 3 * len(NAMES)
    rng = np.random.default_rng(4)
    packets = PacketArray.from_columns(
        np.sort(rng.uniform(0.0, 1e6, n)),
        rng.integers(1, 2**32, n, dtype=np.uint64).astype(np.uint32),
        np.arange(n, dtype=np.uint8) % 2,
        np.arange(n, dtype=np.uint16) % len(NAMES) + 1,
        rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),
    )
    times = [0.0, -0.0, 1e-300, 1.5, 1e22, 86399.99999999999]
    events = EventLog(
        [
            ProcessStateEvent(times[i % len(times)] + i, app, state)
            for i, (app, state) in enumerate(
                (app, state)
                for app in range(1, len(NAMES) + 1)
                for state in ProcessState
            )
        ],
        [ScreenEvent(float(i), bool(i % 2)) for i in range(7)],
        [UserInputEvent(0.1 * i, i % len(NAMES) + 1) for i in range(20)],
    )
    return packets, events, registry


def test_awkward_names_and_values(tmp_path, awkward):
    """Every state and both screen values, names that need quoting,
    unicode and leading spaces, edge timestamps and uint32 extremes."""
    assert_same_bytes(tmp_path, *awkward)


def test_empty_tables(tmp_path):
    registry = AppRegistry([AppInfo(1, "a", "other")])
    packets = PacketArray(np.empty(0, PACKET_DTYPE))
    assert_same_bytes(tmp_path, packets, EventLog(), registry)


def test_many_rows_cross_write_blocks(tmp_path):
    """More rows than one joined write holds."""
    n = 20_000
    registry = AppRegistry([AppInfo(1, "a,b", "other"), AppInfo(2, "c", "other")])
    packets = PacketArray.from_columns(
        np.arange(n, dtype=np.float64) / 7,
        np.full(n, 60, np.uint32),
        np.zeros(n, np.uint8),
        (np.arange(n) % 2 + 1).astype(np.uint16),
        np.arange(n, dtype=np.uint32),
    )
    events = EventLog(
        [ProcessStateEvent(i / 3, 1 + i % 2, ProcessState(i % 6)) for i in range(n)]
    )
    assert_same_bytes(tmp_path, packets, events, registry)


def test_round_trip_through_the_readers(tmp_path, awkward):
    """The readers get back every value; names come back stripped, as
    the readers strip them."""
    packets, events, registry = awkward
    dataset = dataset_from_csv([assert_same_bytes(tmp_path, *awkward)])
    user = dataset.users[0]
    names = {app.app_id: app.name.strip() for app in registry}
    read_names = {app.app_id: app.name for app in dataset.registry}
    assert [read_names[a] for a in user.packets.apps.tolist()] == [
        names[a] for a in packets.apps.tolist()
    ]
    for column in ("timestamps", "sizes", "directions", "conns"):
        np.testing.assert_array_equal(
            getattr(user.packets, column), getattr(packets, column)
        )
    for stream in ("process", "screen", "input"):
        got, want = getattr(user.events, stream), getattr(events, stream)
        np.testing.assert_array_equal(got["timestamp"], want["timestamp"])
    assert user.events.screen.tolist() == events.screen.tolist()
    assert [
        (read_names[a], s) for _, a, s in user.events.process.tolist()
    ] == [(names[a], s) for _, a, s in events.process.tolist()]
