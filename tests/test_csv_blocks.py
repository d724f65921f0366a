"""The block packets-CSV reader against the per-row reference.

:func:`repro.trace.io_text.iter_packet_blocks` must be
indistinguishable from :func:`repro.trace.io_text.iter_packet_rows`
except in speed: ``array_equal`` columns and line numbers, the same
registry JSON, the same error text (file and line), and the same
quarantine count and samples. Each case is built so that it lands on a
block edge or forces a block onto the per-row fallback; clean variants
also assert that the fast path really took them.
"""

import json
import re

import numpy as np
import pytest

from repro import StudyConfig, faults, generate_study
from repro.cli import main
from repro.errors import StreamError, TraceError
from repro.faults import FaultPlan, FaultSpec
from repro.stream import CsvStreamSource
from repro.stream.chunks import RowQuarantine
from repro.trace import io_text
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry
from repro.trace.io_text import (
    dataset_from_csv,
    iter_packet_blocks,
    iter_packet_rows,
    read_events_csv,
    write_packets_csv,
)

BLOCK = io_text._BLOCK_LINES
HEADER = "timestamp,size,direction,app,conn"
DTYPES = (np.int64, np.float64, np.uint32, np.uint8, np.uint16, np.uint32)


def row(i):
    """Field values of the i-th clean row (time-sorted, 7 apps)."""
    return {
        "timestamp": repr(i * 0.25),
        "size": str(60 + i % 1400),
        "direction": ("up", "down")[i % 2],
        "app": f"app.{i % 7}",
        "conn": str(i % 13),
        "note": "x",
    }


def lines_for(n, header=HEADER):
    fields = header.split(",")
    return [",".join(row(i)[f] for f in fields) for i in range(n)]


def write(tmp_path, lines, header=HEADER, newline="\n", name="p.csv"):
    """Write a CSV as UTF-8; each lone surrogate in ``lines`` or
    ``header`` (``"\\udcff"``) lands as one byte that is not UTF-8."""
    path = tmp_path / name
    text = newline.join([header] + lines + [""])
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def app_names(registry_json):
    return [app["name"] for app in json.loads(registry_json)]


def by_rows(path, registry, on_bad_row):
    pairs = list(
        iter_packet_rows(
            path, registry, on_bad_row=on_bad_row, with_line_numbers=True
        )
    )
    columns = zip(*[(n, *r) for n, r in pairs]) if pairs else [()] * 6
    return [np.array(c, dtype=d) for c, d in zip(columns, DTYPES)]


def by_blocks(path, registry, on_bad_row):
    blocks = list(iter_packet_blocks(path, registry, on_bad_row=on_bad_row))
    packets = PacketArray.concat([b.packets for b in blocks])
    numbers = [b.line_numbers for b in blocks]
    return [
        np.concatenate(numbers) if numbers else np.array([], np.int64),
        packets.timestamps,
        packets.sizes,
        packets.directions,
        packets.apps,
        packets.conns,
    ]


def outcome(read, path, quarantine):
    """Everything one read shows: columns, registry, error, quarantine."""
    registry = AppRegistry()
    bad = RowQuarantine()
    columns, error = None, None
    try:
        columns = read(path, registry, bad.record if quarantine else None)
    except TraceError as exc:
        error = str(exc)
    return columns, registry.to_json(), error, bad.count, bad.samples


@pytest.fixture
def per_row_calls(monkeypatch):
    """Counts rows parsed by the per-row path."""
    calls = []
    parse = io_text.parse_packet_fields

    def counting(fields, registry):
        calls.append(1)
        return parse(fields, registry)

    monkeypatch.setattr(io_text, "parse_packet_fields", counting)
    return calls


def assert_same(path, per_row_calls, fallback_rows=None):
    """Block read == per-row read, with and without quarantine.

    ``fallback_rows`` bounds how many rows the block read may hand to
    the per-row path (0: the fast path must take the whole file).
    Returns the per-row outcome with quarantine on.
    """
    for quarantine in (False, True):
        expected = outcome(by_rows, path, quarantine)
        per_row_calls.clear()
        actual = outcome(by_blocks, path, quarantine)
        if fallback_rows is not None:
            assert len(per_row_calls) <= fallback_rows
        if expected[0] is None:
            assert actual[0] is None
        else:
            for got, want in zip(actual[0], expected[0]):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        assert actual[1:] == expected[1:]
    return expected


# ----------------------------------------------------------------------
# Clean files: the fast path takes every block
# ----------------------------------------------------------------------
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_endings(tmp_path, per_row_calls, newline):
    path = write(tmp_path, lines_for(2 * BLOCK + 37), newline=newline)
    columns, *_ = assert_same(path, per_row_calls, fallback_rows=0)
    assert columns[0].tolist() == list(range(2, 2 * BLOCK + 39))


def test_last_line_without_newline(tmp_path, per_row_calls):
    path = tmp_path / "p.csv"
    path.write_text("\n".join([HEADER] + lines_for(BLOCK + 3)))
    assert_same(path, per_row_calls, fallback_rows=0)


@pytest.mark.parametrize(
    "header",
    [
        "app,conn,timestamp,direction,size",  # reordered
        "timestamp,size,direction,app,conn,note",  # extra column
        "timestamp,size,direction,app",  # no conn column
        "note,timestamp,size,direction,app,conn,direction",  # duplicate
    ],
)
def test_header_variants(tmp_path, per_row_calls, header):
    path = write(tmp_path, lines_for(BLOCK + 50, header), header=header)
    assert_same(path, per_row_calls, fallback_rows=0)


def test_duplicate_column_last_one_wins(tmp_path, per_row_calls):
    """DictReader keeps the last of two same-named columns; so must
    the block path (the first copy here would not even parse)."""
    lines = [
        f"{r['timestamp']},garbage,{r['direction']},{r['app']},{r['size']}"
        for r in map(row, range(BLOCK + 9))
    ]
    path = write(tmp_path, lines, header="timestamp,size,direction,app,size")
    columns, _, error, *_ = assert_same(path, per_row_calls, fallback_rows=0)
    assert error is None and columns[2][0] == 60


def test_token_variants(tmp_path, per_row_calls):
    """Padded tokens, digit separators, signed and exponent times,
    empty conn and unicode names all parse on the fast path, exactly
    as per row."""
    lines = lines_for(BLOCK + 20)
    lines[5] = " 1.5 , 1_000 ,  DOWN , app.0 , 7 "
    lines[6] = "+1.75,60,up,app.1,"
    lines[7] = "1_7.5e-1,60,Downlink,приложение.日本,"
    lines[8] = "-0.0,60,1,app.1,0"
    lines[BLOCK + 3] = "1e3,60,0,  app.κ  ,"
    path = write(tmp_path, lines)
    _, registry, *_ = assert_same(path, per_row_calls, fallback_rows=0)
    assert {"приложение.日本", "app.κ"} <= set(app_names(registry))


# ----------------------------------------------------------------------
# Blocks the fast path must hand to the per-row path
# ----------------------------------------------------------------------
def test_quoted_fields(tmp_path, per_row_calls):
    lines = lines_for(3 * BLOCK)
    lines[BLOCK + 10] = '"12.5",100,up,"app, with comma",3'
    lines[BLOCK + 11] = '13.0,100,down,"say ""hi""",3'
    path = write(tmp_path, lines)
    _, registry, *_ = assert_same(path, per_row_calls, fallback_rows=BLOCK)
    assert {"app, with comma", 'say "hi"'} <= set(app_names(registry))


def test_quoted_newline_spanning_block_edge(tmp_path, per_row_calls):
    """A quoted record whose second physical line opens the next block:
    the per-row path reads on past the block, and line numbers stay
    true after it."""
    lines = lines_for(3 * BLOCK)
    lines[BLOCK - 1] = '1.0,100,up,"two\nlines",1'
    lines[BLOCK + 40] = "oops,100,up,app.1,1"
    assert_same(write(tmp_path, lines), per_row_calls)


@pytest.mark.parametrize("where", [0, 100, BLOCK - 1, BLOCK])
def test_blank_line(tmp_path, per_row_calls, where):
    lines = lines_for(2 * BLOCK + 5)
    lines.insert(where, "")
    lines[where + 7] = "bad,1,up,app.1,1"
    assert_same(write(tmp_path, lines), per_row_calls, fallback_rows=2 * BLOCK)


def test_short_and_long_rows(tmp_path, per_row_calls):
    lines = lines_for(2 * BLOCK)
    lines[3] = "1.0"  # missing fields: a TypeError per row
    lines[BLOCK + 3] = "1.0,100,up,app.1,1,extra,fields"
    assert_same(write(tmp_path, lines), per_row_calls)


#: Rows with a byte that is not valid UTF-8 (``write`` turns each lone
#: surrogate into one): in the app name, in a number, and the first two
#: bytes of a three-byte character just before the newline. The app of
#: the numeric cases appears nowhere else in the file.
UNDECODABLE_ROWS = {
    "utf8-app": "1.0,100,up,app.\udcff,1",
    "utf8-size": "1.0,1\udce900,up,app.victim,1",
    "utf8-conn": "1.0,100,up,app.victim,1\udce6\udc97",
}

BAD_ROWS = {
    "timestamp": "not-a-time,100,up,app.bad,1",
    "size": "1.0,###corrupt###,up,app.bad,1",
    "size-range": "1.0,-1,up,app.bad,1",
    "direction": "1.0,100,sideways,app.bad,1",
    "app": "1.0,100,up,   ,1",
    # The app registers before conn fails: registry order must match.
    "conn": "1.0,100,up,app.conn-victim,x",
    "conn-range": "1.0,100,up,app.conn-victim,4294967296",
    # A non-finite time parses as a float but is no packet time.
    "timestamp-inf": "inf,100,up,app.bad,1",
    "timestamp-neg-inf": "-inf,100,up,app.bad,1",
    "timestamp-nan": "nan,100,up,app.bad,1",
    # A field longer than csv.field_size_limit(): the csv module's own
    # error, which must be a malformed row like any other.
    "field-limit": "1.0,100,up,app." + "x" * (1 << 17) + ",1",
    **UNDECODABLE_ROWS,
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize(
    "where", ["first", "last", "block-end", "block-start", "mid"]
)
def test_bad_row_positions(tmp_path, per_row_calls, kind, where):
    n = 2 * BLOCK + 11
    index = {
        "first": 0,
        "last": n - 1,
        "block-end": BLOCK - 1,
        "block-start": BLOCK,
        "mid": BLOCK + 700,
    }[where]
    lines = lines_for(n)
    lines[index] = BAD_ROWS[kind]
    # Only the block holding the bad row falls back — plus, when a
    # quarantined row ends its block, the row after it.
    samples = assert_same(
        write(tmp_path, lines), per_row_calls, fallback_rows=BLOCK + 1
    )[4]
    assert samples[0].startswith(f"p.csv:{index + 2}: ")


def test_size_out_of_range_is_a_typed_row_error(tmp_path):
    path = write(tmp_path, ["1.0,4294967296,up,app.1,1"])
    with pytest.raises(TraceError, match=r"p\.csv:2: packet size out of range"):
        list(iter_packet_blocks(path, AppRegistry()))


def test_error_yields_good_rows_first(tmp_path):
    """Rows before a bad row reach the consumer before the error, as
    they do row by row."""
    lines = lines_for(BLOCK + 30)
    lines[BLOCK + 20] = "oops,1,up,app.1,1"
    seen = []
    with pytest.raises(TraceError, match=rf"p\.csv:{BLOCK + 22}:"):
        for block in iter_packet_blocks(write(tmp_path, lines), AppRegistry()):
            seen.extend(block.line_numbers.tolist())
    assert seen == list(range(2, BLOCK + 22))


# ----------------------------------------------------------------------
# Bytes that are not valid UTF-8: a malformed row, never a crash
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(UNDECODABLE_ROWS))
@pytest.mark.parametrize("index", [0, BLOCK - 1, BLOCK, 2 * BLOCK + 4])
def test_undecodable_row_quarantined_bit_identical(tmp_path, kind, index):
    """Under quarantine the row is dropped and counted, and what is left
    streams bit-identical to the same file without that row."""
    lines = lines_for(2 * BLOCK + 5)
    dirty = lines[:index] + [UNDECODABLE_ROWS[kind]] + lines[index:]
    source = CsvStreamSource(
        [(write(tmp_path, dirty, name="dirty.csv"), None)],
        chunk_size=1000,
        quarantine_rows=True,
    )
    clean = CsvStreamSource(
        [(write(tmp_path, lines, name="clean.csv"), None)], chunk_size=1000
    )
    assert source.quarantine.count == 1
    assert source.quarantine.samples == [
        f"dirty.csv:{index + 2}: row is not valid UTF-8"
    ]
    assert source.registry.to_json() == clean.registry.to_json()
    assert source.n_packets(1) == clean.n_packets(1)
    assert source.duration == clean.duration
    got = [chunk.data for chunk in source.iter_chunks(1)]
    want = [chunk.data for chunk in clean.iter_chunks(1)]
    assert [len(c) for c in got] == [len(c) for c in want]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(StreamError, match=rf":{index + 2}: row is not valid"):
        CsvStreamSource([(tmp_path / "dirty.csv", None)])


def test_undecodable_packets_header_is_a_typed_error(tmp_path):
    path = write(tmp_path, lines_for(3), header=HEADER + "\udcff")
    expected = "p.csv:1: packets CSV header is not valid UTF-8"
    for read in (iter_packet_rows, iter_packet_blocks):
        with pytest.raises(TraceError) as caught:
            list(read(path, AppRegistry()))
        assert str(caught.value) == expected
    with pytest.raises(StreamError, match=expected):
        CsvStreamSource([(path, None)], quarantine_rows=True)


EVENTS_HEADER = "timestamp,kind,app,value"


@pytest.mark.parametrize(
    "header,rows,expected",
    [
        (
            EVENTS_HEADER,
            ["1.0,process,app.0,foreground", "2.0,screen,,o\udcff"],
            "e.csv:3: row is not valid UTF-8",
        ),
        (
            EVENTS_HEADER,
            ["1.0,process,app.\udcff,foreground"],
            "e.csv:2: row is not valid UTF-8",
        ),
        (
            EVENTS_HEADER + "\udcff",
            ["1.0,screen,,on"],
            "e.csv:1: events CSV header is not valid UTF-8",
        ),
    ],
    ids=["value", "app", "header"],
)
def test_undecodable_events_csv_is_a_typed_error(
    tmp_path, header, rows, expected
):
    """Every events reader — batch, stream prepass, ``repro import`` —
    raises the same :class:`TraceError`, and the bad app never
    registers."""
    packets = write(tmp_path, lines_for(3))
    events = write(tmp_path, rows, header=header, name="e.csv")
    registry = AppRegistry()
    for build in (
        lambda: read_events_csv(events, registry),
        lambda: dataset_from_csv([(packets, events)]),
        lambda: CsvStreamSource([(packets, events)], quarantine_rows=True),
        lambda: main(
            ["import", f"{packets}:{events}", "--out", str(tmp_path / "s.npz")]
        ),
    ):
        with pytest.raises(TraceError) as caught:
            build()
        assert str(caught.value) == expected
    assert "app.\udcff" not in registry
    assert not (tmp_path / "s.npz").exists()


@pytest.mark.parametrize("time", ["inf", "-inf", "nan"])
def test_non_finite_event_time_is_a_typed_error(tmp_path, time):
    """A non-finite event time is a malformed row: not a window ending
    at ``inf``, and not an event silently read at ``nan``."""
    packets = write(tmp_path, lines_for(3))
    rows = ["1.0,process,app.0,foreground", f"{time},screen,,on"]
    events = write(tmp_path, rows, header=EVENTS_HEADER, name="e.csv")
    expected = f"e.csv:3: non-finite timestamp {float(time)}"
    for build in (
        lambda: read_events_csv(events, AppRegistry()),
        lambda: dataset_from_csv([(packets, events)]),
        lambda: CsvStreamSource([(packets, events)]),
    ):
        with pytest.raises(TraceError) as caught:
            build()
        assert str(caught.value) == expected


def test_cli_ingest_quarantines_undecodable_row(tmp_path, capsys):
    lines = lines_for(BLOCK + 5)
    bad = UNDECODABLE_ROWS["utf8-app"]
    path = write(tmp_path, lines[:7] + [bad] + lines[7:])
    argv = [
        "ingest",
        "--user",
        str(path),
        "--checkpoint",
        str(tmp_path / "ck.npz"),
    ]
    with pytest.raises(StreamError, match=r"p\.csv:9: row is not valid"):
        main(argv)
    assert main(argv + ["--quarantine"]) == 0
    assert "quarantined: 1 malformed row(s)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CsvStreamSource on blocks: prepass order check, quarantine, skip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", [17, BLOCK - 1, BLOCK, BLOCK + 1])
def test_out_of_order_names_true_line(tmp_path, index):
    lines = lines_for(2 * BLOCK + 3)
    lines[index] = "0.125,60,up,app.1,1"
    path = write(tmp_path, lines)
    with pytest.raises(StreamError) as caught:
        CsvStreamSource([(path, None)])
    assert str(caught.value) == (
        f"p.csv:{index + 2}: packets not time-sorted (t=0.125 after "
        f"t={(index - 1) * 0.25!r}); sort the file before streaming it"
    )


def test_out_of_order_after_quarantined_rows_at_block_edge(tmp_path):
    lines = lines_for(2 * BLOCK)
    lines[BLOCK - 2] = "garbage,60,up,app.1,1"
    lines[BLOCK - 1] = "garbage,60,up,app.1,1"
    lines[BLOCK] = "0.5,60,up,app.1,1"
    path = write(tmp_path, lines)
    with pytest.raises(StreamError, match=rf"p\.csv:{BLOCK + 2}: packets not"):
        CsvStreamSource([(path, None)], quarantine_rows=True)


def test_source_quarantine_matches_per_row(tmp_path):
    lines = lines_for(3 * BLOCK)
    for i in (0, 7, BLOCK - 1, BLOCK, 2 * BLOCK + 5, 3 * BLOCK - 1):
        lines[i] = f"{i * 0.25!r},bad,up,app.q{i},1"
    path = write(tmp_path, lines)
    reference = RowQuarantine()
    rows = list(iter_packet_rows(path, AppRegistry(), reference.record))
    source = CsvStreamSource([(path, None)], quarantine_rows=True)
    assert source.quarantine.count == reference.count == 6
    assert source.quarantine.samples == reference.samples
    assert source.n_packets(1) == len(rows)


@pytest.mark.parametrize("skip", [0, 1, BLOCK - 1, BLOCK, BLOCK + 5, 3000])
def test_skip_lands_mid_block(tmp_path, skip):
    """Resuming with ``skip`` surviving rows drops exactly those rows,
    and every chunk but the last holds exactly ``chunk_size`` rows."""
    lines = lines_for(2 * BLOCK + 500)
    lines[BLOCK - 3] = "bad,1,up,app.1,1"  # a quarantined row shifts ordinals
    path = write(tmp_path, lines)
    source = CsvStreamSource(
        [(path, None)], chunk_size=999, quarantine_rows=True
    )
    whole = np.concatenate([c.data for c in source.iter_chunks(1)])
    chunks = list(source.iter_chunks(1, skip=skip))
    assert [len(c) for c in chunks[:-1]] == [999] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= 999
    np.testing.assert_array_equal(
        np.concatenate([c.data for c in chunks]), whole[skip:]
    )


def test_armed_plan_chunks_equal_unarmed(tmp_path):
    """An armed plan sends iter_chunks down the per-row path (one
    ``io.packet_row`` hit per row); over a clean file its chunks are
    identical to the fast path's."""
    dataset = generate_study(StudyConfig(n_users=1, duration_days=1.0, seed=3))
    packets = dataset.users[0].packets
    path = tmp_path / "p.csv"
    write_packets_csv(path, packets, dataset.registry)
    source = CsvStreamSource([(path, None)], chunk_size=1500)
    unarmed = list(source.iter_chunks(1))
    plan = FaultPlan([FaultSpec("io.packet_row", "corrupt", hit=10**9)], seed=0)
    with faults.installed(plan):
        armed = list(source.iter_chunks(1))
        assert faults.fire_count("io.packet_row") == len(packets)
    assert [len(c) for c in armed] == [len(c) for c in unarmed]
    for got, want in zip(armed, unarmed):
        np.testing.assert_array_equal(got.data, want.data)


# ----------------------------------------------------------------------
# A field over csv's field limit: a malformed row at every door
# ----------------------------------------------------------------------
def test_field_over_the_limit_is_a_quarantinable_row(tmp_path, capsys):
    """The stream source and ``repro ingest`` fail on the row, naming
    its file line, or drop it under quarantine; the file's other rows
    stream as if it were not there."""
    lines = lines_for(BLOCK + 5)
    bad = BAD_ROWS["field-limit"]
    path = write(tmp_path, lines[:7] + [bad] + lines[7:])
    clean = write(tmp_path, lines, name="clean.csv")
    expected = "p.csv:9: field larger than field limit (131072)"
    with pytest.raises(StreamError, match=re.escape(expected)):
        CsvStreamSource([(path, None)])
    source = CsvStreamSource([(path, None)], quarantine_rows=True)
    assert source.quarantine.samples == [expected]
    np.testing.assert_array_equal(
        np.concatenate([c.data for c in source.iter_chunks(1)]),
        np.concatenate(
            [c.data for c in CsvStreamSource([(clean, None)]).iter_chunks(1)]
        ),
    )
    argv = ["ingest", "--user", str(path), "--checkpoint", str(tmp_path / "c.npz")]
    with pytest.raises(StreamError, match=re.escape(expected)):
        main(argv)
    assert main(argv + ["--quarantine"]) == 0
    assert "quarantined: 1 malformed row(s)" in capsys.readouterr().out


def test_events_field_over_the_limit_is_a_typed_error(tmp_path):
    packets = write(tmp_path, lines_for(3))
    rows = ["1.0,process,app.0,foreground", "2.0,input,app." + "x" * (1 << 17) + ","]
    events = write(tmp_path, rows, header=EVENTS_HEADER, name="e.csv")
    expected = "e.csv:3: field larger than field limit (131072)"
    for build in (
        lambda: read_events_csv(events, AppRegistry()),
        lambda: CsvStreamSource([(packets, events)]),
    ):
        with pytest.raises(TraceError) as caught:
            build()
        assert str(caught.value) == expected


# ----------------------------------------------------------------------
# Spans: whole lines of a growing file, as the live tail reads them
# ----------------------------------------------------------------------
def span_blocks(path, registry, start, stop, header):
    """The blocks of the file's bytes ``[start, stop)``, whole lines
    past the header line ``header``."""
    data = path.read_bytes()
    # A byte past the start tells a lone "\r" ending it from "\r\n".
    before = np.count_nonzero(io_text._line_ends(data[: start + 1]) < start)
    span = header + data[start:stop]
    return list(io_text._packet_reader(path, registry, span=(span, before - 1)))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_spans_read_what_the_whole_file_reads(tmp_path, newline):
    """Cut at line ends into spans, a file reads span by span as it
    reads whole: the same rows, line numbers and app registration."""
    lines = lines_for(3 * BLOCK)
    lines[BLOCK + 10] = '"12.5",100,up,"app, with comma",3'
    lines[BLOCK + 20] = ""
    path = write(tmp_path, lines, newline=newline)
    # The tail cuts its spans at a "\n": the last line end is one.
    data = path.read_bytes().rstrip(b"\r\n") + b"\r\n"
    path.write_bytes(data)
    ends = io_text._line_ends(data)
    assert len(ends) == len(lines) + 1
    header = data[: ends[0] + 1]
    whole, by_span = AppRegistry(), AppRegistry()
    expected = list(iter_packet_blocks(path, whole))
    cuts = [0, 1, 700, BLOCK + 15, BLOCK + 16, 3 * BLOCK]
    got = []
    for a, b in zip(cuts, cuts[1:]):
        got += span_blocks(path, by_span, ends[a] + 1, ends[b] + 1, header)
    for i, want in enumerate(zip(*expected)):
        np.testing.assert_array_equal(
            np.concatenate([g[i] if i == 0 else g[i].data for g in got]),
            np.concatenate([w if i == 0 else w.data for w in want]),
        )
    assert by_span.to_json() == whole.to_json()


def test_span_holds_back_a_record_open_inside_quotes(tmp_path):
    """A span whose end falls inside a quoted field stops before that
    record and registers none of its app; the next span, from the same
    start, reads it whole."""
    lines = lines_for(5)
    lines[3] = '1.0,100,up,"two\nlines",1'
    path = write(tmp_path, lines)
    data = path.read_bytes()
    ends = io_text._line_ends(data)
    header = data[: ends[0] + 1]
    registry = AppRegistry()
    torn = span_blocks(path, registry, ends[0] + 1, ends[4] + 1, header)
    assert [n.tolist() for n, _ in torn] == [[2, 3, 4]]
    assert "two\nlines" not in registry
    whole = span_blocks(path, registry, ends[3] + 1, len(data), header)
    assert [n.tolist() for n, _ in whole] == [[6, 7]]
    assert registry.name_of(int(whole[0][1].apps[0])) == "two\nlines"


def test_span_events_hold_back_a_record_open_inside_quotes(tmp_path):
    rows = ["1.0,process,app.0,foreground", '2.0,input,"app\nname",']
    path = write(tmp_path, rows, header=EVENTS_HEADER, name="e.csv")
    data = path.read_bytes()
    registry = AppRegistry()
    torn = io_text._read_events(
        path, registry, (data[: data.rindex(b"name")], 0)
    )
    assert len(torn.process) == 1 and len(torn.input) == 0
    assert [app.name for app in registry] == ["app.0"]
    log = io_text._read_events(path, registry, (data, 0))
    assert len(log.input) == 1
    assert [app.name for app in registry] == ["app.0", "app\nname"]


def test_span_header_is_checked_as_every_reader_checks_it(tmp_path):
    path = tmp_path / "p.csv"
    for header, message in [
        (b"time,bytes\r\n", r"p\.csv: packets CSV must have"),
        (HEADER.encode() + b"\xff\n", r"p\.csv:1: .* not valid UTF-8"),
    ]:
        span = header + b"1.0,100,up,app.1,1\n"
        with pytest.raises(TraceError, match=message):
            list(io_text._packet_reader(path, AppRegistry(), span=(span, 5)))


def test_header_field_over_the_limit_is_a_typed_error(tmp_path):
    path = write(tmp_path, lines_for(3), header=HEADER + ",x" + "x" * (1 << 17))
    expected = "p.csv:1: field larger than field limit (131072)"
    for read in (iter_packet_rows, iter_packet_blocks):
        with pytest.raises(TraceError) as caught:
            list(read(path, AppRegistry()))
        assert str(caught.value) == expected
