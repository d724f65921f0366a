"""CSV trace interchange."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.dataset import AppRegistry
from repro.trace.events import ProcessState
from repro.trace.io_text import (
    dataset_from_csv,
    read_events_csv,
    read_packets_csv,
    write_events_csv,
    write_packets_csv,
)

PACKETS_CSV = """timestamp,size,direction,app,conn
12.5,1448,down,com.example.app,17
12.6,60,up,com.example.app,17
90.0,500,DOWN,com.other.app,3
"""

EVENTS_CSV = """timestamp,kind,app,value
10.0,process,com.example.app,foreground
80.0,process,com.example.app,background
5.0,screen,,on
85.0,screen,,off
11.0,input,com.example.app,
"""


@pytest.fixture
def packets_file(tmp_path):
    path = tmp_path / "packets.csv"
    path.write_text(PACKETS_CSV)
    return path


@pytest.fixture
def events_file(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(EVENTS_CSV)
    return path


def test_read_packets(packets_file):
    registry = AppRegistry()
    packets = read_packets_csv(packets_file, registry)
    assert len(packets) == 3
    assert packets.is_time_sorted()
    assert registry.id_of("com.example.app") == 1
    assert registry.id_of("com.other.app") == 2
    assert packets.sizes.tolist() == [1448, 60, 500]
    assert packets.directions.tolist() == [1, 0, 1]
    assert packets.conns.tolist() == [17, 17, 3]


def test_read_packets_bad_direction(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,size,direction,app\n1.0,10,sideways,a\n")
    with pytest.raises(TraceError):
        read_packets_csv(path, AppRegistry())


def test_read_packets_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,size\n1.0,10\n")
    with pytest.raises(TraceError):
        read_packets_csv(path, AppRegistry())


def test_read_events(events_file):
    registry = AppRegistry()
    log = read_events_csv(events_file, registry)
    assert len(log.process_events) == 2
    assert log.process_events[0].state is ProcessState.FOREGROUND
    assert len(log.screen_events) == 2
    assert log.screen_on_at(50.0)
    assert len(log.input_events) == 1


def test_read_events_bad_state(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,kind,app,value\n1.0,process,a,floating\n")
    with pytest.raises(TraceError):
        read_events_csv(path, AppRegistry())


def test_read_events_bad_kind(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,kind,app,value\n1.0,teleport,a,x\n")
    with pytest.raises(TraceError):
        read_events_csv(path, AppRegistry())


def test_dataset_from_csv_end_to_end(packets_file, events_file):
    dataset = dataset_from_csv([(packets_file, events_file)])
    assert len(dataset) == 1
    trace = dataset.users[0]
    assert trace.duration == 86400.0  # rounded up to a day
    # State labelling happened: packet at 12.5 while app foregrounded.
    first = trace.packets.for_app(dataset.registry.id_of("com.example.app"))
    assert ProcessState(int(first.states[0])) is ProcessState.FOREGROUND
    dataset.validate()


def test_dataset_from_csv_requires_users():
    with pytest.raises(TraceError):
        dataset_from_csv([])


def test_roundtrip(small_dataset, tmp_path):
    """Export a generated user's trace and re-import it losslessly."""
    trace = small_dataset.users[0]
    packets_path = tmp_path / "p.csv"
    events_path = tmp_path / "e.csv"
    # Export a manageable slice.
    subset = trace.packets.in_range(0.0, 6 * 3600.0)
    write_packets_csv(packets_path, subset, small_dataset.registry)
    write_events_csv(events_path, trace.events, small_dataset.registry)

    dataset = dataset_from_csv([(packets_path, events_path)])
    imported = dataset.users[0].packets
    assert len(imported) == len(subset)
    np.testing.assert_allclose(imported.timestamps, subset.timestamps)
    np.testing.assert_array_equal(imported.sizes, subset.sizes)
    np.testing.assert_array_equal(imported.directions, subset.directions)
    # App ids may be renumbered, but names must agree per packet.
    original_names = [
        small_dataset.registry.name_of(int(a)) for a in subset.apps[:100]
    ]
    imported_names = [
        dataset.registry.name_of(int(a)) for a in imported.apps[:100]
    ]
    assert original_names == imported_names


def test_analysis_runs_on_imported_data(packets_file, events_file):
    from repro import StudyEnergy

    dataset = dataset_from_csv([(packets_file, events_file)])
    study = StudyEnergy(dataset)
    assert study.attributed_energy > 0


def test_malformed_packet_row_names_file_and_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "timestamp,size,direction,app\n"
        "1.0,100,up,a.one\n"
        "not-a-number,100,down,a.two\n"
    )
    with pytest.raises(TraceError, match=r"p\.csv:3:"):
        read_packets_csv(path, AppRegistry())


def test_malformed_packet_direction_names_file_and_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "timestamp,size,direction,app\n"
        "1.0,100,up,a.one\n"
        "2.0,100,down,a.two\n"
        "3.0,50,sideways,a.one\n"
    )
    with pytest.raises(TraceError, match=r"p\.csv:4:"):
        read_packets_csv(path, AppRegistry())


def test_malformed_event_row_names_file_and_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text(
        "timestamp,kind,app,value\n"
        "1.0,process,a.one,foreground\n"
        "2.0,process,a.one,warp-speed\n"
    )
    with pytest.raises(TraceError, match=r"e\.csv:3:"):
        read_events_csv(path, AppRegistry())


@pytest.mark.parametrize("newline", ["\r\n", "\n"])
def test_file_ending_inside_a_quoted_field_is_a_malformed_row(tmp_path, newline):
    """A CSV cut short inside a quoted field is a malformed last row
    naming its file line, not a row whose app is the cut text and whose
    missing conn reads 0; quarantined, it registers no app."""
    from repro.errors import StreamError
    from repro.stream import CsvStreamSource

    def cut(name, *lines):
        path = tmp_path / name
        path.write_text(newline.join(lines), newline="")
        return path

    packets = cut(
        "p.csv", "timestamp,size,direction,app,conn", "1.0,100,up,app.a,1",
        '2.0,100,up,"two', "li",
    )
    message = "p.csv:4: file ends inside a quoted field"
    with pytest.raises(TraceError, match=f"^{message}$"):
        read_packets_csv(packets, AppRegistry())
    with pytest.raises(StreamError, match=f"^malformed packet row: {message}$"):
        CsvStreamSource([(packets, None)])
    source = CsvStreamSource([(packets, None)], quarantine_rows=True)
    assert source.quarantine.samples == [message]
    assert source.n_packets(1) == 1
    assert [app.name for app in source.registry] == ["app.a"]
    events = cut(
        "e.csv", "timestamp,kind,app,value", "1.0,process,app.a,foreground",
        '2.0,input,"two', "li",
    )
    with pytest.raises(TraceError, match=r"^e\.csv:4: file ends inside a quoted"):
        read_events_csv(events, AppRegistry())


def test_iterators_match_batch_readers(packets_file, events_file):
    from repro.trace.io_text import iter_event_rows, iter_packet_rows

    batch_registry = AppRegistry()
    packets = read_packets_csv(packets_file, batch_registry)
    iter_registry = AppRegistry()
    rows = list(iter_packet_rows(packets_file, iter_registry))
    assert len(rows) == len(packets)
    # Same registration order, hence the same app ids per row.
    assert iter_registry.to_json() == batch_registry.to_json()
    assert [r[0] for r in rows] == packets.timestamps.tolist()
    assert [r[1] for r in rows] == packets.sizes.tolist()
    assert [r[3] for r in rows] == packets.apps.tolist()

    read_events_csv(events_file, batch_registry)
    n_events = sum(1 for _ in iter_event_rows(events_file, iter_registry))
    assert n_events == 5
