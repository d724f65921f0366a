"""The stream prepass against a full-parse reference.

:class:`repro.stream.CsvStreamSource` parses every packet row once, at
construction, and keeps the records for its chunk pass. What
construction shows — registry JSON, ``n_packets``, ``duration``, the
quarantine count and samples, and the error text — must equal a
prepass over :func:`repro.trace.io_text.iter_packet_blocks`' full
arrays, with and without quarantine: in particular for size and conn
tokens of every shape.
"""

import functools

import numpy as np
import pytest

from repro.errors import StreamError, TraceError
from repro.stream import CsvStreamSource
from repro.stream.chunks import RowQuarantine
from repro.trace import io_text
from repro.trace.dataset import AppRegistry
from repro.trace.io_text import (
    iter_packet_blocks,
    iter_packet_rows,
    read_events_csv,
)
from test_csv_blocks import BAD_ROWS, lines_for, write

BLOCK = io_text._BLOCK_LINES
EVENTS_HEADER = "timestamp,kind,app,value"


def reference(user_files, quarantine):
    """The prepass as a full parse: every block's arrays built."""
    registry = AppRegistry()
    bad = RowQuarantine()
    counts = []
    horizon = 0.0
    try:
        for uid, (packets_path, events_path) in enumerate(user_files, 1):
            on_bad = (
                functools.partial(bad.record, user_id=uid)
                if quarantine
                else None
            )
            count, last_ts = 0, -np.inf
            try:
                for block in iter_packet_blocks(
                    packets_path, registry, on_bad_row=on_bad
                ):
                    ts = block.packets.timestamps
                    previous = np.concatenate(([last_ts], ts[:-1]))
                    behind = np.flatnonzero(ts < previous)
                    if len(behind):
                        i = behind[0]
                        raise StreamError(
                            f"{packets_path.name}:{block.line_numbers[i]}: "
                            f"packets not time-sorted (t={float(ts[i])} "
                            f"after t={float(previous[i])}); "
                            "sort the file before streaming it"
                        )
                    count += len(ts)
                    last_ts = float(ts[-1])
            except TraceError as exc:
                raise StreamError(f"malformed packet row: {exc}") from exc
            if count:
                horizon = max(horizon, last_ts)
            if events_path is not None:
                events = read_events_csv(events_path, registry)
                horizon = max(horizon, events.last_timestamp)
            counts.append(count)
    except (StreamError, TraceError) as exc:
        return {"error": str(exc), "registry": registry.to_json()}
    duration = float(np.ceil(horizon / 86400.0) * 86400.0) or 86400.0
    return {
        "registry": registry.to_json(),
        "counts": counts,
        "duration": duration,
        "quarantined": (bad.count, bad.samples),
    }


def constructed(user_files, quarantine):
    """What ``CsvStreamSource(...)`` shows of the same files."""
    try:
        source = CsvStreamSource(user_files, quarantine_rows=quarantine)
    except (StreamError, TraceError) as exc:
        return {"error": str(exc)}
    return {
        "registry": source.registry.to_json(),
        "counts": [source.n_packets(uid) for uid in source.user_ids],
        "duration": source.duration,
        "quarantined": (source.quarantine.count, source.quarantine.samples),
    }


def assert_same(user_files):
    for quarantine in (False, True):
        expected = reference(user_files, quarantine)
        actual = constructed(user_files, quarantine)
        # A failed construction leaves no source, so no registry to see.
        expected_shown = {k: v for k, v in expected.items() if k in actual}
        assert actual == expected_shown


def events_file(tmp_path, rows, name="e.csv"):
    return write(tmp_path, rows, header=EVENTS_HEADER, name=name)


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("where", ["first", "block-end", "block-start", "last"])
def test_bad_rows(tmp_path, kind, where):
    n = 2 * BLOCK + 11
    index = {"first": 0, "block-end": BLOCK - 1, "block-start": BLOCK}.get(
        where, n - 1
    )
    lines = lines_for(n)
    lines[index] = BAD_ROWS[kind]
    assert_same([(write(tmp_path, lines), None)])


#: Size and conn tokens: the digit shortcut's edges (1-9 ASCII digits
#: are accepted uncast) and every token it must hand to ``int``.
NUMBER_TOKENS = [
    "0",
    "7",
    "000000001",
    "999999999",
    "1000000000",
    "4294967295",
    "4294967296",
    "9999999999",
    "0000000000",
    "00000000000000000000007",
    "٣",
    "²",
    " 7 ",
    "1_000",
    "+5",
    "-0",
    "-1",
    "0x10",
    "",
    "7.0",
]


@pytest.mark.parametrize("token", NUMBER_TOKENS)
@pytest.mark.parametrize("field", ["size", "conn"])
@pytest.mark.parametrize("index", [3, BLOCK + 5])
def test_size_and_conn_tokens(tmp_path, token, field, index):
    lines = lines_for(2 * BLOCK)
    fields = lines[index].split(",")
    fields[{"size": 1, "conn": 4}[field]] = token
    lines[index] = ",".join(fields)
    assert_same([(write(tmp_path, lines), None)])


def test_whole_block_of_long_digit_runs(tmp_path):
    """Every size and conn of a block 10 digits long: none may take the
    shortcut, and one over ``uint32`` fails the block."""
    lines = lines_for(2 * BLOCK)
    for i in range(BLOCK, 2 * BLOCK):
        t, _, d, a, _ = lines[i].split(",")
        lines[i] = f"{t},1000000000,{d},{a},4294967295"
    assert_same([(write(tmp_path, lines), None)])
    lines[BLOCK + 9] = lines[BLOCK + 9][: -len("4294967295")] + "4294967296"
    assert_same([(write(tmp_path, lines), None)])


def test_token_variants(tmp_path):
    """``test_csv_blocks.test_token_variants``' lines, which the fast
    path takes: padded tokens, digit separators, signed and exponent
    times, empty conns and unicode names."""
    lines = lines_for(BLOCK + 20)
    lines[5] = " 1.5 , 1_000 ,  DOWN , app.0 , 7 "
    lines[6] = "+1.75,60,up,app.1,"
    lines[7] = "1_7.5e-1,60,Downlink,приложение.日本,"
    lines[8] = "-0.0,60,1,app.1,0"
    lines[BLOCK + 3] = "1e3,60,0,  app.κ  ,"
    # Sorted already? No: the prepass rejects it, naming the line.
    assert_same([(write(tmp_path, lines), None)])
    for i in (5, 6, 7, 8, BLOCK + 3):
        fields = lines[i].split(",")
        fields[0] = repr(i * 0.25)
        lines[i] = ",".join(fields)
    assert_same([(write(tmp_path, lines), None)])


def test_header_without_conn(tmp_path):
    header = "timestamp,size,direction,app"
    lines = lines_for(BLOCK + 9, header)
    lines[4] = "1.0,4294967296,up,app.1"
    assert_same([(write(tmp_path, lines, header=header), None)])


def test_several_users_with_events(tmp_path):
    """Registry order across users, packets before events, and the
    horizon from whichever is later."""
    files = []
    for uid in range(3):
        lines = lines_for(BLOCK + 40 * uid)
        lines[7] = f"{7 * 0.25!r},60,up,app.only{uid},1"
        if uid == 1:
            lines[BLOCK - 1] = "1.0,9999999999,up,app.bad,1"
        packets = write(tmp_path, lines, name=f"p{uid}.csv")
        events = events_file(
            tmp_path,
            [
                f"5.0,process,app.event{uid},foreground",
                "6.0,screen,app.screen-only,on",
                f"{200000.0 * uid!r},input,app.0,",
            ],
            name=f"e{uid}.csv",
        )
        files.append((packets, events))
    files.append((write(tmp_path, [], name="empty.csv"), None))
    assert_same(files)


@pytest.mark.parametrize(
    "short,message",
    [
        ("1.0,100", "unknown packet direction None"),
        ("1.0,100,up", "packet/event row with empty app name"),
    ],
)
def test_short_rows_are_typed_row_errors(tmp_path, short, message):
    """A row missing its direction or app is a malformed row naming its
    line, in every reader, and quarantined like any other."""
    lines = lines_for(BLOCK + 9)
    lines[BLOCK + 2] = short
    path = write(tmp_path, lines)
    with pytest.raises(TraceError) as caught:
        list(iter_packet_rows(path, AppRegistry()))
    assert str(caught.value) == f"p.csv:{BLOCK + 4}: {message}"
    assert_same([(path, None)])
    source = CsvStreamSource([(path, None)], quarantine_rows=True)
    assert source.quarantine.samples == [str(caught.value)]
