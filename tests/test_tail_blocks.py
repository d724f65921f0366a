"""The live CSV tail on the block reader, against its frozen reference.

:class:`repro.follow.TailCsvSource` parses each poll's span of whole
lines through the batch reader's block loop. ``tests/tail_reference.py``
keeps the per-line tail it replaced. On the files the CSV writers
write, grown by random byte cuts (mid-header, mid-row, mid-token), the
two must return ``array_equal`` chunks, equal snapshots and equal
registry JSON after every poll, and fail on the same poll with the same
exception class. Past that, the tail reads what the batch reader reads
where the per-line one could not (a quoted newline), holds back torn
events lines, and names a line too long for one poll.
"""

from __future__ import annotations

import csv
import random

import numpy as np
import pytest

from repro import StudyConfig, generate_study
from repro.errors import StreamError
from repro.follow import TAIL_READ_LIMIT, TailCsvSource
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry
from repro.trace.io_text import (
    read_packets_csv,
    write_events_csv,
    write_packets_csv,
)

from tail_reference import ReferenceTail
from test_csv_blocks import BAD_ROWS

CHUNK_SIZES = [1, 7, 128, 2049, 65536]
MAX_CHUNKS = [None, 1, 3]


@pytest.fixture(scope="module")
def study_files(tmp_path_factory):
    """Each user's packets and events CSV bytes, as the writers write
    them (``\\r\\n`` line ends)."""
    dataset = generate_study(StudyConfig(n_users=2, duration_days=1.0, seed=29))
    directory = tmp_path_factory.mktemp("study")
    files = {}
    for user in dataset.users:
        packets = directory / f"u{user.user_id}.csv"
        events = directory / f"u{user.user_id}.events.csv"
        write_packets_csv(packets, user.packets, dataset.registry)
        write_events_csv(events, user.events, dataset.registry)
        files[user.user_id] = (packets.read_bytes(), events.read_bytes())
    return files


class Growth:
    """Per-user packets and events files grown in steps: the packets by
    byte cuts, the events by whole lines."""

    def __init__(self, tmp_path, contents, rng, n_cuts=6):
        self.pairs, self.plans = [], []
        for uid, (packets, events) in contents.items():
            paths = (tmp_path / f"u{uid}.csv", tmp_path / f"u{uid}.events.csv")
            for path in paths:
                path.write_bytes(b"")
            self.pairs.append(paths)
            header_end = packets.index(b"\n") + 1
            cuts = {rng.randrange(1, header_end)}  # mid-header
            cuts |= set(rng.sample(range(header_end, len(packets)), n_cuts))
            crlf = packets.find(b"\r\n", len(packets) // 2)
            if crlf > 0:
                cuts.add(crlf + 1)  # between "\r" and "\n"
            cuts = sorted(cuts) + [len(packets)]
            self.plans.append((packets, events.splitlines(True), cuts))
        self.steps = max(len(cuts) for _, _, cuts in self.plans)

    def step(self, i):
        for (packets_path, events_path), (packets, events, cuts) in zip(
            self.pairs, self.plans
        ):
            lo = cuts[i - 1] if 0 < i <= len(cuts) else 0
            hi = cuts[min(i, len(cuts) - 1)]
            if i < len(cuts):
                with open(packets_path, "ab") as handle:
                    handle.write(packets[lo:hi])
            n = min(i + 1, self.steps) * len(events) // self.steps
            events_path.write_bytes(b"".join(events[:n]))


def _poll(source, uid, max_chunks):
    try:
        return source.poll(uid, max_chunks), None
    except Exception as exc:  # compared by class below
        return None, exc


def _assert_same_poll(ref, new, uid, max_chunks):
    """One poll of each tail: equal chunks, snapshots and registry, or
    the same exception class. True while rows keep coming."""
    want, want_error = _poll(ref, uid, max_chunks)
    got, got_error = _poll(new, uid, max_chunks)
    if want_error is not None or got_error is not None:
        return want_error, got_error
    assert len(got) == len(want)
    for (chunk, snapshot), (ref_chunk, ref_snapshot) in zip(got, want):
        assert np.array_equal(chunk.data, ref_chunk.data)
        assert snapshot == ref_snapshot
    assert new.registry.to_json() == ref.registry.to_json()
    return bool(want)


def _drain_both(growth, ref, new, max_chunks):
    """Grow the files step by step, draining both tails after each
    step; returns the first (reference, tail) exceptions, if any."""
    for i in range(growth.steps):
        growth.step(i)
        for uid in (1, 2):
            while True:
                outcome = _assert_same_poll(ref, new, uid, max_chunks)
                if isinstance(outcome, tuple):
                    return outcome
                if not outcome:
                    break
    return None


def _contents(study_files, crlf, n_rows=None):
    contents = {}
    for uid, (packets, events) in study_files.items():
        if not crlf:
            packets = packets.replace(b"\r\n", b"\n")
            events = events.replace(b"\r\n", b"\n")
        if n_rows is not None:
            packets = b"".join(packets.splitlines(True)[: n_rows + 1])
        contents[uid] = (packets, events)
    return contents


@pytest.mark.parametrize("max_chunks", MAX_CHUNKS)
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("crlf", [True, False], ids=["crlf", "lf"])
def test_tail_equals_the_reference(
    tmp_path, study_files, crlf, chunk_size, max_chunks
):
    # Rows enough for ~400 bounded polls per user, or the whole file.
    n_rows = 400 * (max_chunks or 8) * chunk_size
    growth = Growth(
        tmp_path,
        _contents(study_files, crlf, n_rows),
        random.Random(f"{crlf}-{chunk_size}-{max_chunks}"),
    )
    ref = ReferenceTail(growth.pairs, chunk_size)
    new = TailCsvSource(growth.pairs, chunk_size)
    assert _drain_both(growth, ref, new, max_chunks) is None
    for uid, (packets, _, _) in enumerate(growth.plans, start=1):
        n_lines = packets.count(b"\n")
        assert new.cursor_snapshot(uid)["offset"] == len(packets)
        assert new.cursor_snapshot(uid)["rows"] == n_lines - 1


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_bad_rows_fail_on_the_same_poll(tmp_path, study_files, kind):
    """Each malformed row fails both tails on the same poll with the
    same exception class — but for a field over csv's field limit,
    which the reference let out as the csv module's raw error."""
    contents = _contents(study_files, crlf=True, n_rows=900)
    packets, events = contents[1]
    lines = packets.splitlines(True)
    lines[500] = BAD_ROWS[kind].encode("utf-8", "surrogateescape") + b"\r\n"
    contents[1] = (b"".join(lines), events)
    growth = Growth(tmp_path, contents, random.Random(kind))
    ref = ReferenceTail(growth.pairs, 128)
    new = TailCsvSource(growth.pairs, 128)
    want, got = _drain_both(growth, ref, new, 3)
    if kind == "field-limit":
        assert isinstance(want, csv.Error)
        assert isinstance(got, StreamError)
        assert "u1.csv:501: field larger than field limit" in str(got)
    else:
        assert type(got) is type(want) is StreamError


def test_a_cursor_of_the_reference_resumes_in_the_tail(tmp_path, study_files):
    """The snapshot format is the reference's: a tail restored from the
    reference's cursor and registry goes on exactly as the reference
    does, and its errors name true file lines."""
    contents = _contents(study_files, crlf=True, n_rows=1500)
    packets, events = contents[1]
    lines = packets.splitlines(True)
    lines[1200] = b"oops,100,up,app.1,1\r\n"
    contents[1] = (b"".join(lines), events)
    growth = Growth(tmp_path, contents, random.Random(7), n_cuts=0)
    for i in range(growth.steps):
        growth.step(i)
    ref = ReferenceTail(growth.pairs, 100)
    first = ref.poll(1, max_chunks=4)
    new = TailCsvSource(growth.pairs, 100)
    new.restore({"1": first[-1][1]}, ref.registry.to_json())
    for _ in range(7):
        assert _assert_same_poll(ref, new, 1, 1) is True
    with pytest.raises(StreamError, match=r"u1\.csv:1201: could not convert"):
        new.poll(1)


# ----------------------------------------------------------------------
# What the tail reads that the per-line reference could not
# ----------------------------------------------------------------------
NAMES = ["app.a", "app, with comma", "two\nlines", 'say "hi"', "app.b"]


def _quoted_study(tmp_path, blank_lines=False):
    """A packets CSV whose app names need quotes, one with a newline,
    plus the registry it was written with."""
    registry = AppRegistry()
    for name in NAMES:
        registry.register(name)
    n = 40
    packets = PacketArray.from_columns(
        np.arange(n, dtype=np.float64),
        np.full(n, 100, np.uint32),
        np.arange(n, dtype=np.uint8) % 2,
        (np.arange(n) * 3 % len(NAMES) + 1).astype(np.uint16),
        np.arange(n, dtype=np.uint32),
    )
    path = tmp_path / "full.csv"
    write_packets_csv(path, packets, registry)
    data = path.read_bytes()
    if blank_lines:
        lines = data.splitlines(True)
        data = b"".join(
            line + (b"\r\n" if i % 7 == 3 else b"") for i, line in enumerate(lines)
        ) + b"\r\n\r\n"
        path.write_bytes(data)
    return path, data


def _app_rows(packets, registry):
    return [
        (registry.name_of(int(app)), float(t), int(size), int(conn))
        for t, size, app, conn in zip(
            packets.timestamps, packets.sizes, packets.apps, packets.conns
        )
    ]


@pytest.mark.parametrize("blank_lines", [False, True], ids=["quoted", "blank"])
@pytest.mark.parametrize("chunk_size,max_chunks", [(1, 1), (3, None), (64, 2)])
def test_tail_reads_what_the_batch_reader_reads(
    tmp_path, blank_lines, chunk_size, max_chunks
):
    """Grown one cut at a time — every cut inside the quoted newline
    among them — the tail returns the rows ``read_packets_csv`` reads
    of the final file, and registers no app before its record is
    complete."""
    full, data = _quoted_study(tmp_path, blank_lines)
    inside = data.index(b"two\n") + 4  # between the newline and "lines"
    rng = random.Random(chunk_size)
    cuts = {inside, inside - 1, inside + 5} | set(rng.sample(range(1, len(data)), 12))
    cuts = sorted(cuts)
    path = tmp_path / "p.csv"
    path.write_bytes(b"")
    source = TailCsvSource([(path, None)], chunk_size=chunk_size)
    got = []
    for lo, hi in zip([0] + cuts, cuts + [len(data)]):
        with open(path, "ab") as handle:
            handle.write(data[lo:hi])
        while True:
            polled = source.poll(1, max_chunks)
            for chunk, _ in polled:
                got += _app_rows(chunk, source.registry)
            assert {app.name for app in source.registry} == {row[0] for row in got}
            if not polled:
                break
    batch = AppRegistry()
    assert got == _app_rows(read_packets_csv(full, batch), batch)
    assert source.cursor_snapshot(1)["rows"] == len(got)


def test_reference_misreads_a_quoted_newline(tmp_path):
    """The defect the block reader mends: the per-line tail splits a
    record at the newline inside its quotes, registers the bogus app
    before it, and fails on the rest."""
    full, data = _quoted_study(tmp_path)
    ref = ReferenceTail([(full, None)], chunk_size=1000)
    with pytest.raises(StreamError, match="malformed tailed row"):
        ref.poll(1)
    assert "two" in ref.registry


def test_a_record_longer_than_the_poll_bound_is_read(tmp_path):
    """A quoted record of more lines than ``max_chunks * chunk_size``
    is not held back for ever: that poll reads on to the end of what it
    read, and still registers no app past the rows it returns."""
    path = tmp_path / "p.csv"
    path.write_bytes(
        b"timestamp,size,direction,app,conn\r\n"
        b'1.0,100,up,"a\r\nb\r\nc\r\nd",1\r\n'
        b"2.0,100,up,app.e,1\r\n"
    )
    source = TailCsvSource([(path, None)], chunk_size=1)
    polled = source.poll(1, max_chunks=1)
    names = [source.registry.name_of(int(c.apps[0])) for c, _ in polled]
    assert names == ["a\r\nb\r\nc\r\nd", "app.e"]
    assert [app.name for app in source.registry] == names
    assert polled[-1][1]["offset"] == path.stat().st_size
    assert source.poll(1, max_chunks=1) == []


# ----------------------------------------------------------------------
# Torn events lines, over-long lines
# ----------------------------------------------------------------------
PACKETS_HEADER = b"timestamp,size,direction,app,conn\r\n"
EVENTS_HEADER = b"timestamp,kind,app,value\r\n"


@pytest.mark.parametrize(
    "torn,rest,app",
    [
        (b"2.0,input,com.android.chr", b"ome,\r\n", "com.android.chrome"),
        (b"2.0,screen,,o", b"n\r\n", None),
    ],
    ids=["input-app", "screen-value"],
)
def test_torn_events_line_waits_for_its_newline(tmp_path, torn, rest, app):
    """A half-written events line is neither an app nor an error: the
    tail reads events up to their last complete line, and reads the
    line once it completes."""
    packets, events = tmp_path / "p.csv", tmp_path / "e.csv"
    packets.write_bytes(PACKETS_HEADER + b"1.0,100,up,app.x,1\r\n")
    events.write_bytes(EVENTS_HEADER + b"1.0,process,app.x,foreground\r\n" + torn)
    source = TailCsvSource([(packets, events)])
    assert len(source.poll(1)) == 1
    assert [a.name for a in source.registry] == ["app.x"]
    with open(events, "ab") as handle:
        handle.write(rest)
    with open(packets, "ab") as handle:
        handle.write(b"3.0,100,down,app.x,1\r\n")
    assert len(source.poll(1)) == 1
    names = [a.name for a in source.registry]
    assert names == ["app.x"] + ([app] if app else [])
    log = source._events[1]
    assert len(log.input) + len(log.screen) == 1


def test_a_line_longer_than_the_read_limit_is_a_stream_error(tmp_path):
    """A line no poll can hold fails the poll that reaches it, naming
    the file and the byte where it starts, instead of stalling."""
    path = tmp_path / "p.csv"
    row = b"1.0,100,up,app.x,1\r\n"
    path.write_bytes(
        PACKETS_HEADER + row + b"2.0,100,up,app." + b"y" * (2 * TAIL_READ_LIMIT)
        + b",1\r\n3.0,100,up,app.z,1\r\n"
    )
    source = TailCsvSource([(path, None)])
    assert sum(len(c) for c, _ in source.poll(1)) == 1
    offset = len(PACKETS_HEADER + row)
    with pytest.raises(
        StreamError, match=rf"p\.csv: the line at byte {offset} is longer"
    ):
        source.poll(1)
    assert source.cursor_snapshot(1)["offset"] == offset


def test_a_header_longer_than_the_read_limit_is_a_stream_error(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"timestamp,size,direction,app,conn," + b"x" * TAIL_READ_LIMIT)
    with pytest.raises(StreamError, match=r"p\.csv: the line at byte 0 "):
        TailCsvSource([(path, None)]).poll(1)


def test_restored_cursor_counts_lone_carriage_returns(tmp_path):
    """Line numbers after a restore count the lines before the cursor
    as the readers split them, a lone ``\\r`` included."""
    path = tmp_path / "p.csv"
    path.write_bytes(
        PACKETS_HEADER + b"1.0,100,up,app.x,1\r2.0,100,up,app.x,1\r\n"
        b"3.0,100,up,app.x,1\r\noops,1,up,app.x,1\r\n"
    )
    source = TailCsvSource([(path, None)], chunk_size=1)
    polled = source.poll(1, max_chunks=2)
    assert [float(c.timestamps[0]) for c, _ in polled] == [1.0, 2.0]
    restored = TailCsvSource([(path, None)], chunk_size=1)
    restored.restore({"1": polled[-1][1]}, source.registry.to_json())
    third = restored.poll(1, max_chunks=1)
    assert [float(c.timestamps[0]) for c, _ in third] == [3.0]
    with pytest.raises(StreamError, match=r"p\.csv:5: could not convert"):
        restored.poll(1)
