"""The stream prepass parses each packets-CSV row once.

:class:`repro.stream.CsvStreamSource` parses every packets CSV in its
prepass and appends the parsed records to an anonymous temporary file;
``iter_chunks`` reads them back from there instead of parsing the file
again. So each block is tokenized once per ingest (resumed or not), a
CSV deleted or rewritten after construction streams what the prepass
validated, and a disk that fills while the records are written is a
typed error naming the CSV.
"""

import errno
import math
import os
import tempfile

import numpy as np
import pytest

from repro import StudyConfig, generate_study
from repro.errors import StreamError
from repro.stream import CsvStreamSource, StreamIngestor
from repro.trace import io_text
from repro.trace.io_text import write_events_csv, write_packets_csv

#: Fields of a packets-CSV header line (an events CSV has four).
PACKET_FIELDS = 5


@pytest.fixture(scope="module")
def pairs(tmp_path_factory):
    """Three users' packets and events CSVs: the first two span two
    blocks each, the third fits in one."""
    directory = tmp_path_factory.mktemp("spill")
    dataset = generate_study(StudyConfig(n_users=3, duration_days=1.0, seed=5))
    files = []
    for user in dataset.users:
        packets = directory / f"u{user.user_id}.csv"
        events = directory / f"u{user.user_id}.events.csv"
        write_packets_csv(packets, user.packets, dataset.registry)
        write_events_csv(events, user.events, dataset.registry)
        files.append((packets, events))
    return files


def blocks_of(source):
    """Blocks of ``io_text._BLOCK_LINES`` lines over all users' packets
    CSVs (every line of a written CSV is a plain row)."""
    return sum(
        math.ceil(source.n_packets(uid) / io_text._BLOCK_LINES)
        for uid in source.user_ids
    )


@pytest.fixture
def packet_splits(monkeypatch):
    """Count ``_split_block`` calls on packets-CSV blocks."""
    calls = []
    split = io_text._split_block

    def counted(block, n_fields):
        if n_fields == PACKET_FIELDS:
            calls.append(len(block))
        return split(block, n_fields)

    monkeypatch.setattr(io_text, "_split_block", counted)
    return calls


def chunks_of(source):
    return {
        uid: [chunk.data.copy() for chunk in source.iter_chunks(uid)]
        for uid in source.user_ids
    }


def assert_same_chunks(got, want):
    assert got.keys() == want.keys()
    for uid in want:
        assert [len(c) for c in got[uid]] == [len(c) for c in want[uid]]
        for a, b in zip(got[uid], want[uid]):
            np.testing.assert_array_equal(a, b)


def test_each_packets_block_is_tokenized_once_per_ingest(
    pairs, tmp_path, packet_splits
):
    source = CsvStreamSource(pairs, chunk_size=1000)
    StreamIngestor(source, checkpoint_path=tmp_path / "run.ckpt.npz").run()
    assert len(packet_splits) == blocks_of(source) == 5
    assert sum(packet_splits) == sum(map(source.n_packets, source.user_ids))


@pytest.mark.parametrize("edit", ["deleted", "rewritten"])
def test_csv_changed_after_construction_streams_what_was_validated(
    pairs, tmp_path, edit
):
    copies = []
    for packets, events in pairs:
        copy = tmp_path / packets.name
        copy.write_bytes(packets.read_bytes())
        copies.append((copy, events))
    want = chunks_of(CsvStreamSource(pairs, chunk_size=700))
    source = CsvStreamSource(copies, chunk_size=700)
    for copy, _ in copies:
        if edit == "deleted":
            copy.unlink()
        else:
            copy.write_text("timestamp,size,direction,app\n1.0,5,up,other.app\n")
    assert_same_chunks(chunks_of(source), want)


@pytest.mark.parametrize(
    "k", [2, 4, 5, 8], ids=["mid-user", "user-end", "next-user", "second-user-end"]
)
def test_kill_and_resume_at_another_chunk_size(pairs, tmp_path, packet_splits, k):
    """Killed after k chunks of 1000 rows (the users have 4, 4 and 2)
    and resumed at another chunk size, the run ends on the uninterrupted
    run's checkpoint bytes; the resumed run seeks in the spill and
    tokenizes each block once, in its own prepass."""
    whole = tmp_path / "whole.ckpt.npz"
    StreamIngestor(CsvStreamSource(pairs, chunk_size=1000), checkpoint_path=whole).run()
    ckpt = tmp_path / "run.ckpt.npz"
    killed = CsvStreamSource(pairs, chunk_size=1000)
    assert [math.ceil(killed.n_packets(u) / 1000) for u in killed.user_ids] == [4, 4, 2]
    assert StreamIngestor(killed, checkpoint_path=ckpt).run(max_chunks=k) is None
    del packet_splits[:]
    resumed = CsvStreamSource(pairs, chunk_size=777)
    StreamIngestor(resumed, checkpoint_path=ckpt).run(resume=True)
    assert ckpt.read_bytes() == whole.read_bytes()
    assert len(packet_splits) == blocks_of(resumed)


class SpillDisk:
    """A spill file whose writes take at most ``per_write`` bytes each
    and fail with ``ENOSPC`` once ``room`` bytes are written."""

    def __init__(self, per_write, room, real=tempfile.TemporaryFile):
        self._file = real(buffering=0)
        self._per_write = per_write
        self._room = room
        self.written = 0

    def write(self, data):
        n = min(len(data), self._per_write, self._room - self.written)
        if not n:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.written += n
        return self._file.write(memoryview(data)[:n])

    def __getattr__(self, name):
        return getattr(self._file, name)


def test_spill_full_disk_is_a_stream_error_naming_the_csv(pairs, monkeypatch):
    first_user = CsvStreamSource(pairs[:1]).n_packets(1)
    room = first_user * 24 + 1000  # the disk fills in the second CSV
    monkeypatch.setattr(
        tempfile, "TemporaryFile", lambda **_: SpillDisk(1 << 30, room)
    )
    with pytest.raises(StreamError) as caught:
        CsvStreamSource(pairs)
    assert str(caught.value) == (
        "u2.csv: cannot spill parsed rows: [Errno 28] "
        + os.strerror(errno.ENOSPC)
    )


def test_short_spill_writes_keep_every_record(pairs, monkeypatch):
    """A write that takes part of a block is carried on from where it
    stopped: every record reaches the spill, in order."""
    want = chunks_of(CsvStreamSource(pairs, chunk_size=500))
    disk = SpillDisk(1001, 1 << 30)
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda **_: disk)
    source = CsvStreamSource(pairs, chunk_size=500)
    assert disk.written == 24 * sum(map(source.n_packets, source.user_ids))
    assert_same_chunks(chunks_of(source), want)


def test_spill_cut_short_is_a_stream_error(pairs):
    source = CsvStreamSource(pairs, chunk_size=500)
    os.ftruncate(source._spill.fileno(), 600 * 24)
    chunks = source.iter_chunks(1)
    assert len(next(chunks)) == 500
    with pytest.raises(StreamError, match=r"^u1\.csv: spilled packets cut short$"):
        next(chunks)
