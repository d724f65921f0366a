"""Measurement-software simulation: raw-log round trip."""

import numpy as np
import pytest

from repro import StudyEnergy
from repro.collect import (
    CollectionConfig,
    UNKNOWN_APP,
    collect_dataset,
    parse_dataset,
    read_device_logs,
    write_device_logs,
)
from repro.core.statefrac import background_energy_fraction
from repro.errors import TraceError
from repro.trace.dataset import AppInfo, AppRegistry
from repro.trace.events import (
    EventLog,
    ProcessState,
    ProcessStateEvent,
    ScreenEvent,
    UserInputEvent,
)
from repro.trace.packet import Direction
from repro.trace.trace import UserTrace

from conftest import make_packets


@pytest.fixture(scope="module")
def log_root(small_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("rawlogs")
    collect_dataset(small_dataset, root)
    return root


@pytest.fixture(scope="module")
def parsed(log_root, small_dataset):
    return parse_dataset(log_root, duration=small_dataset.users[0].duration)


def test_roundtrip_packet_identity(small_dataset, parsed):
    assert len(parsed) == len(small_dataset)
    for original, restored in zip(small_dataset, parsed):
        assert len(restored.packets) == len(original.packets)
        np.testing.assert_allclose(
            restored.packets.timestamps, original.packets.timestamps
        )
        np.testing.assert_array_equal(
            restored.packets.sizes, original.packets.sizes
        )
        np.testing.assert_array_equal(
            restored.packets.directions, original.packets.directions
        )


def test_roundtrip_app_names(small_dataset, parsed):
    """App ids may be renumbered, but every packet keeps its app name."""
    original = small_dataset.users[0]
    restored = parsed.users[0]
    names_a = [small_dataset.registry.name_of(int(a)) for a in original.packets.apps[:500]]
    names_b = [parsed.registry.name_of(int(a)) for a in restored.packets.apps[:500]]
    assert names_a == names_b


def test_roundtrip_events(small_dataset, parsed):
    original = small_dataset.users[0].events
    restored = parsed.users[0].events
    assert len(restored.process_events) == len(original.process_events)
    assert len(restored.screen_events) == len(original.screen_events)
    assert len(restored.input_events) == len(original.input_events)


def test_analyses_survive_roundtrip(small_dataset, parsed):
    """The headline analysis is identical on parsed raw logs."""
    direct = background_energy_fraction(StudyEnergy(small_dataset))
    reparsed = background_energy_fraction(StudyEnergy(parsed))
    assert reparsed == pytest.approx(direct, rel=1e-9)


def test_socket_loss_creates_unknown_bucket(small_dataset, tmp_path):
    trace = small_dataset.users[0]
    directory = tmp_path / "lossy"
    write_device_logs(
        trace,
        small_dataset.registry,
        directory,
        CollectionConfig(socket_record_loss=0.5, seed=3),
    )
    from repro.trace.dataset import AppRegistry

    registry = AppRegistry()
    restored = read_device_logs(directory, registry)
    assert UNKNOWN_APP in registry
    unknown_id = registry.id_of(UNKNOWN_APP)
    unknown_bytes = restored.packets.bytes_by_app().get(unknown_id, 0)
    assert unknown_bytes > 0
    # Total traffic is preserved; only attribution degrades.
    assert restored.packets.total_bytes == trace.packets.total_bytes


def test_no_loss_has_no_unknown(log_root):
    from repro.trace.dataset import AppRegistry

    registry = AppRegistry()
    read_device_logs(sorted(log_root.iterdir())[0], registry)
    assert UNKNOWN_APP not in registry


def test_collection_config_validation():
    with pytest.raises(TraceError):
        CollectionConfig(socket_record_loss=1.0)


def test_parse_empty_root(tmp_path):
    with pytest.raises(TraceError):
        parse_dataset(tmp_path)


def test_missing_packet_log(tmp_path):
    (tmp_path / "user_001").mkdir()
    with pytest.raises(TraceError):
        parse_dataset(tmp_path)


def test_malformed_packet_line(tmp_path):
    device = tmp_path / "user_001"
    device.mkdir()
    (device / "packets.log").write_text("1.0 5 U\n")  # missing size
    with pytest.raises(TraceError):
        read_device_logs(device)


#: One appended line per case, and the error it must raise. The
#: ``\udcff`` becomes one byte that is not valid UTF-8.
MALFORMED_LOG_LINES = {
    "process-unknown-state": ("process.log", "5.0 app.x ASLEEP", "unknown value 'ASLEEP'"),
    "process-two-fields": ("process.log", "5.0 app.x", "expected 3 fields"),
    "process-bad-time": ("process.log", "soon app.x FOREGROUND", "could not convert"),
    "process-inf-time": ("process.log", "inf app.x FOREGROUND", "non-finite timestamp inf"),
    "screen-three-fields": ("screen.log", "5.0 ON now", "expected 2 fields"),
    "screen-maybe": ("screen.log", "5.0 MAYBE", "unknown value 'MAYBE'"),
    "input-one-field": ("input.log", "5.0", "expected 2 fields"),
    "packets-size-big": ("packets.log", "5.0 1 U big", "invalid literal"),
    "packets-size-negative": ("packets.log", "5.0 1 U -1", "packet size out of range"),
    "packets-nan-time": ("packets.log", "nan 1 U 100", "non-finite timestamp nan"),
    "sockets-conn-x": ("sockets.log", "5.0 x app.x", "invalid literal"),
    "not-utf8": ("input.log", "5.0 app.\udcff", "line is not valid UTF-8"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LOG_LINES))
def test_malformed_log_line_is_a_trace_error(tmp_path, case):
    """One bad line appended to a device's log raises TraceError naming
    the log and line — never a raw KeyError, ValueError, OverflowError
    or UnicodeDecodeError, and never a silently misread value."""
    log, line, message = MALFORMED_LOG_LINES[case]
    packets = make_packets(
        [(1.0, 100, Direction.UPLINK, 1, 3), (2.0, 900, Direction.DOWNLINK, 1, 3)]
    )
    events = EventLog(
        [ProcessStateEvent(0.5, 1, ProcessState.FOREGROUND)],
        [ScreenEvent(0.5, True)],
        [UserInputEvent(0.75, 1)],
    )
    device = write_device_logs(
        UserTrace(1, 0.0, 10.0, packets, events),
        AppRegistry([AppInfo(1, "app.x", "social")]),
        tmp_path / "user_001",
    )
    path = device / log
    number = len(path.read_bytes().splitlines()) + 1
    with open(path, "ab") as handle:
        handle.write(f"{line}\n".encode("utf-8", "surrogateescape"))
    with pytest.raises(TraceError) as caught:
        read_device_logs(device)
    assert str(caught.value).startswith(f"{log}:{number}: {message}")
