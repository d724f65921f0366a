"""The block events-CSV reader against the per-row reference.

:func:`repro.trace.io_text.read_events_csv` parses in blocks through
the packets reader's block loop; it must be indistinguishable from
:func:`repro.trace.io_text.iter_event_rows` except in speed:
``array_equal`` event streams, the same registry JSON and the same
error text (file and line). Each case lands on a block edge or forces
a block onto the per-row fallback; clean variants also assert, through
a per-row call counter, that the fast path really took them.
"""

import json

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace import io_text
from repro.trace.dataset import AppRegistry
from repro.trace.events import EventLog, ProcessState
from repro.trace.io_text import iter_event_rows, read_events_csv

BLOCK = io_text._BLOCK_LINES
HEADER = "timestamp,kind,app,value"
STATES = [state.name.lower() for state in ProcessState]


def row(i):
    """Field values of the i-th clean row: every kind, every state and
    both screen values, 5 apps; screen rows name an app of their own
    that no other row names."""
    kind = ("process", "process", "screen", "input")[i % 4]
    value = {
        "process": STATES[i % len(STATES)],
        "screen": ("on", "off")[i // 4 % 2],
        "input": "",
    }[kind]
    app = f"app.screen{i % 3}" if kind == "screen" else f"app.{i % 5}"
    return {
        "timestamp": repr(i * 0.5),
        "kind": kind,
        "app": app,
        "value": value,
        "note": "x",
    }


def lines_for(n, header=HEADER):
    fields = header.split(",")
    return [",".join(row(i).get(f, "") for f in fields) for i in range(n)]


def write(tmp_path, lines, header=HEADER, newline="\n"):
    """Write ``e.csv`` as UTF-8; a lone surrogate lands as one byte
    that is not valid UTF-8."""
    path = tmp_path / "e.csv"
    text = newline.join([header] + lines + [""])
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def by_rows(path, registry):
    """The per-row reference: every row through ``iter_event_rows``."""
    streams = {"process": [], "screen": [], "input": []}
    for kind, event in iter_event_rows(path, registry):
        streams[kind].append(event)
    return EventLog(streams["process"], streams["screen"], streams["input"])


def app_names(registry_json):
    return [app["name"] for app in json.loads(registry_json)]


def outcome(read, path):
    """Everything one read shows: the streams, registry and error."""
    registry = AppRegistry()
    streams, error = None, None
    try:
        log = read(path, registry)
        streams = (log.process, log.screen, log.input)
    except TraceError as exc:
        error = str(exc)
    return streams, registry.to_json(), error


@pytest.fixture
def per_row_calls(monkeypatch):
    """Counts rows parsed by the per-row path."""
    calls = []
    parse = io_text._parse_event_fields

    def counting(fields, registry):
        calls.append(1)
        return parse(fields, registry)

    monkeypatch.setattr(io_text, "_parse_event_fields", counting)
    return calls


def assert_same(path, per_row_calls, fallback_rows=None):
    """Block read == per-row read; returns the per-row outcome.

    ``fallback_rows`` bounds how many rows the block read may hand to
    the per-row path (0: the fast path must take the whole file).
    """
    expected = outcome(by_rows, path)
    per_row_calls.clear()
    actual = outcome(read_events_csv, path)
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
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 2 * BLOCK + 37])
def test_line_endings(tmp_path, per_row_calls, newline, n):
    path = write(tmp_path, lines_for(n), newline=newline)
    streams, registry, error = assert_same(path, per_row_calls, 0)
    assert error is None and sum(map(len, streams)) == n


def test_last_line_without_newline(tmp_path, per_row_calls):
    """A last line with no line end, whose last field is empty."""
    path = tmp_path / "e.csv"
    lines = lines_for(BLOCK + 3)
    lines[-1] = "9999.0,input,app.last,"
    path.write_text("\n".join([HEADER] + lines))
    streams, *_ = assert_same(path, per_row_calls, 0)
    assert streams[2]["timestamp"][-1] == 9999.0


def test_empty_file_and_header_only(tmp_path, per_row_calls):
    path = write(tmp_path, [])
    streams, *_ = assert_same(path, per_row_calls, 0)
    assert list(map(len, streams)) == [0, 0, 0]


def test_unsorted_and_tied_times_keep_file_order(tmp_path, per_row_calls):
    """The stable time sort sees the rows in file order across blocks,
    so tied events keep their file order."""
    lines = lines_for(3 * BLOCK)
    lines = lines[BLOCK:] + lines[:BLOCK]
    for i in range(0, len(lines), 7):
        lines[i] = f"100.0,process,app.t{i % 4},{STATES[i % 6]}"
    assert_same(write(tmp_path, lines), per_row_calls, 0)


@pytest.mark.parametrize(
    "header",
    [
        "value,app,kind,timestamp",  # reordered
        "timestamp,kind,app,value,note",  # extra column
        "note,timestamp,kind,app,value,kind",  # duplicated: last one wins
    ],
)
def test_header_variants(tmp_path, per_row_calls, header):
    path = write(tmp_path, lines_for(BLOCK + 50, header), header=header)
    assert_same(path, per_row_calls, 0)


def test_duplicate_column_last_one_wins(tmp_path, per_row_calls):
    """The first ``kind`` copy here would not even parse."""
    lines = [
        f"{r['timestamp']},garbage,{r['app']},{r['value']},{r['kind']}"
        for r in map(row, range(BLOCK + 9))
    ]
    path = write(tmp_path, lines, header="timestamp,kind,app,value,kind")
    streams, _, error = assert_same(path, per_row_calls, 0)
    assert error is None and len(streams[0]) > 0


def test_missing_value_column(tmp_path, per_row_calls):
    """Without a ``value`` column, input rows parse and a process row
    is an unknown state (read per row, with its line)."""
    lines = [f"{i}.0,input,app.{i % 3}" for i in range(BLOCK + 5)]
    header = "timestamp,kind,app"
    assert_same(write(tmp_path, lines, header=header), per_row_calls, 0)
    lines[BLOCK + 2] = "1.0,process,app.1"
    _, _, error = assert_same(write(tmp_path, lines, header=header), per_row_calls)
    assert error == f"e.csv:{BLOCK + 4}: unknown process state None"


def test_missing_app_column(tmp_path, per_row_calls):
    """Without an ``app`` column, screen rows parse and an input row is
    an empty app name."""
    lines = [f"{i}.0,screen,{('on', 'off')[i % 2]}" for i in range(BLOCK + 5)]
    header = "timestamp,kind,value"
    assert_same(write(tmp_path, lines, header=header), per_row_calls, 0)
    lines[7] = "1.0,input,"
    _, _, error = assert_same(write(tmp_path, lines, header=header), per_row_calls)
    assert error == "e.csv:9: packet/event row with empty app name"


def test_token_variants(tmp_path, per_row_calls):
    """Padded and upper-case kinds and states, padded app names,
    digit separators, signed and exponent times and unicode names all
    parse on the fast path, exactly as per row."""
    lines = lines_for(BLOCK + 20)
    lines[5] = " 1.5 , PROCESS , app.0 , Foreground "
    lines[6] = "1_0.5,Screen,,  ON"
    lines[7] = "+1.75,INPUT,  приложение.日本  ,ignored"
    lines[8] = "-0.0,process,app.1,NOT_RUNNING"
    lines[9] = "1e3,screen,anything at all,Off"
    lines[BLOCK + 3] = "2E-1,\tprocess\t,app.κ,service"
    path = write(tmp_path, lines)
    _, registry, _ = assert_same(path, per_row_calls, 0)
    assert {"приложение.日本", "app.κ"} <= set(app_names(registry))


def test_screen_rows_register_no_app(tmp_path, per_row_calls):
    """A name only screen rows carry never registers, and does not
    shift the ids of the apps after it."""
    lines = lines_for(BLOCK + 10)
    _, registry, _ = assert_same(write(tmp_path, lines), per_row_calls, 0)
    assert sorted(app_names(registry)) == [f"app.{i}" for i in range(5)]


# ----------------------------------------------------------------------
# Blocks the fast path must hand to the per-row path
# ----------------------------------------------------------------------
def test_quoted_fields(tmp_path, per_row_calls):
    lines = lines_for(3 * BLOCK)
    lines[BLOCK + 10] = '"12.5",process,"app, with comma",background'
    lines[BLOCK + 11] = '13.0,input,"say ""hi""",'
    _, registry, error = assert_same(
        write(tmp_path, lines), per_row_calls, BLOCK
    )
    assert error is None
    assert {"app, with comma", 'say "hi"'} <= set(app_names(registry))


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_quoted_newline_spanning_block_edge(tmp_path, per_row_calls, newline):
    """A quoted record whose second physical line opens the next block:
    the per-row path reads on past the block, and a later error still
    names its true line."""
    lines = lines_for(3 * BLOCK)
    lines[BLOCK - 1] = '1.0,input,"two\nlines",'
    lines[BLOCK + 40] = "oops,input,app.1,"
    _, _, error = assert_same(
        write(tmp_path, lines, newline=newline), per_row_calls
    )
    assert error.startswith(f"e.csv:{BLOCK + 43}: ")


@pytest.mark.parametrize("where", [0, 100, BLOCK - 1, BLOCK])
def test_blank_line(tmp_path, per_row_calls, where):
    lines = lines_for(2 * BLOCK + 5)
    lines.insert(where, "")
    assert_same(write(tmp_path, lines), per_row_calls, 2 * BLOCK)
    lines[where + 7] = "bad,input,app.1,"
    _, _, error = assert_same(write(tmp_path, lines), per_row_calls)
    assert error.startswith(f"e.csv:{where + 9}: ")


@pytest.mark.parametrize(
    "line,message",
    [
        ("1.0,screen", "screen value must be on/off, got ''"),
        ("1.0", "unknown event kind None"),
        ("1.0,screen,,on,extra,fields", None),
    ],
    ids=["short", "time-only", "long"],
)
def test_short_and_long_rows(tmp_path, per_row_calls, line, message):
    """Short rows are typed row errors (a missing kind included); a
    long row's extra fields are ignored, as ``DictReader`` ignores
    them."""
    lines = lines_for(2 * BLOCK)
    lines[BLOCK + 3] = line
    _, _, error = assert_same(write(tmp_path, lines), per_row_calls, BLOCK)
    if message is None:
        assert error is None
    else:
        assert error == f"e.csv:{BLOCK + 5}: {message}"


#: Rows the per-row path must reject, each with its message.
BAD_ROWS = {
    "utf8-app": ("1.0,process,app.\udcff,foreground", "row is not valid UTF-8"),
    "utf8-value": ("1.0,screen,,o\udcff", "row is not valid UTF-8"),
    "time": ("not-a-time,input,app.1,", "could not convert"),
    "time-inf": ("inf,input,app.1,", "non-finite timestamp inf"),
    "time-nan": ("nan,screen,,on", "non-finite timestamp nan"),
    "kind": ("1.0,teleport,app.1,", "unknown event kind 'teleport'"),
    "state": ("1.0,process,app.1,warp", "unknown process state 'warp'"),
    "screen": ("1.0,screen,,dim", "screen value must be on/off"),
    "app": ("1.0,process,   ,visible", "empty app name"),
    "input-app": ("1.0,input,,", "empty app name"),
    "field-limit": (
        "1.0,process,app." + "x" * (1 << 17) + ",foreground",
        "field larger than field limit (131072)",
    ),
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize(
    "where", ["first", "last", "block-end", "block-start", "mid"]
)
def test_bad_row_positions(tmp_path, per_row_calls, kind, where):
    """Only the block holding the bad row is read per row, and its
    error names the true line, after fast blocks or before them."""
    n = 2 * BLOCK + 11
    index = {
        "first": 0,
        "last": n - 1,
        "block-end": BLOCK - 1,
        "block-start": BLOCK,
        "mid": BLOCK + 700,
    }[where]
    lines = lines_for(n)
    text, message = BAD_ROWS[kind]
    lines[index] = text
    _, _, error = assert_same(write(tmp_path, lines), per_row_calls, BLOCK)
    assert error.startswith(f"e.csv:{index + 2}: ")
    assert message in error


def test_apps_after_a_bad_row_never_register(tmp_path, per_row_calls):
    """A block's apps register only once it has parsed: an app that
    first appears after a bad row in the same block stays unknown, and
    the apps before it register in file order."""
    lines = lines_for(2 * BLOCK)
    lines[BLOCK + 10] = "1.0,process,app.early,foreground"
    lines[BLOCK + 20] = "1.0,process,app.1,warp"
    lines[BLOCK + 30] = "1.0,input,app.late,"
    _, registry, error = assert_same(write(tmp_path, lines), per_row_calls)
    assert error.startswith(f"e.csv:{BLOCK + 22}: unknown process state")
    assert "app.early" in app_names(registry)
    assert "app.late" not in app_names(registry)


def test_error_after_clean_blocks_keeps_their_apps(tmp_path, per_row_calls):
    """Blocks before a bad one have registered their apps, in file
    order, exactly as the per-row read had when it hit the error."""
    lines = lines_for(3 * BLOCK)
    lines[BLOCK - 5] = "1.0,input,app.first-block,"
    lines[2 * BLOCK + 1] = "1.0,input,app.third-block,"
    lines[2 * BLOCK + 2] = "oops,input,app.1,"
    _, registry, error = assert_same(write(tmp_path, lines), per_row_calls)
    assert error.startswith(f"e.csv:{2 * BLOCK + 4}: ")
    assert {"app.first-block", "app.third-block"} <= set(app_names(registry))


def test_iter_event_rows_names_lines_past_fast_blocks(tmp_path):
    """The per-row path's line numbers count the lines fast blocks
    consumed without the ``csv`` reader."""
    lines = lines_for(3 * BLOCK)
    lines[2 * BLOCK + 100] = "1.0,process,app.1,warp"
    with pytest.raises(TraceError, match=rf"^e\.csv:{2 * BLOCK + 102}: "):
        read_events_csv(write(tmp_path, lines), AppRegistry())
