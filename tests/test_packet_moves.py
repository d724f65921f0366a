"""Packet-record moves equal their structured-dtype references.

:class:`~repro.trace.arrays.PacketArray` moves whole records (a gather,
a mask, a sort, a retime, a concatenation, a read off a byte buffer)
as raw 24-byte records instead of :data:`PACKET_DTYPE` ones. Each op
here must give the bytes of the same op on the structured array,
``tobytes()`` for ``tobytes()``, in a result that stays writable, on
random records (every field random, ties in time), on empty arrays and
on strided views. The stream sources' chunks, read off a buffer or
rechunked from parsed blocks, must equal the batch readers' records.
"""

import numpy as np
import pytest

from repro import StudyConfig, faults, generate_study
from repro.faults import FaultPlan
from repro.stream import CsvStreamSource, NpzStreamSource
from repro.trace.arrays import PACKET_DTYPE, PacketArray
from repro.trace.dataset import Dataset
from repro.trace.io_text import dataset_from_csv, write_events_csv, write_packets_csv

SIZES = (0, 1, 2, 37, 500)


def random_records(n, seed):
    """``n`` records with every field random; times on a coarse grid,
    so many tie."""
    rng = np.random.default_rng(seed)
    data = np.empty(n, PACKET_DTYPE)
    data["timestamp"] = rng.integers(0, max(n // 3, 1), n) * 0.5
    data["size"] = rng.integers(0, 1 << 32, n, dtype=np.uint64)
    for name in ("direction", "app", "conn", "flow", "state"):
        info = np.iinfo(PACKET_DTYPE[name])
        data[name] = rng.integers(0, int(info.max) + 1, n, dtype=np.uint64)
    return data


def views(data):
    """The array itself and strided views of it."""
    return {
        "whole": data,
        "every-other": data[::2],
        "reversed": data[::-1],
        "offset-by-three": data[1::3],
    }


def cases():
    for n in SIZES:
        for name, view in views(random_records(n, seed=n)).items():
            yield pytest.param(view, id=f"{n}-{name}")


def assert_same(got, want):
    """``got`` (a PacketArray) holds exactly ``want``'s records."""
    assert isinstance(got, PacketArray)
    assert got.data.dtype == PACKET_DTYPE
    assert got.data.shape == want.shape
    assert got.data.tobytes() == want.tobytes()
    assert got.data.flags.writeable


@pytest.mark.parametrize("data", cases())
def test_int_keys_give_one_row_views(data):
    packets = PacketArray(data)
    n = len(data)
    for row in sorted({0, n // 2, n - 1, -1, -n}):
        if not -n <= row < n:
            continue
        for key in (row, np.int64(row), np.array(row), np.uint32(row % n)):
            got = packets[key]
            assert_same(got, np.atleast_1d(data[key]))
            assert np.shares_memory(got.data, data)
        # A one-tuple picks the same record, as a one-row copy.
        assert_same(packets[(row,)], np.atleast_1d(data[(row,)]))
    for key in (n, -n - 1, np.array(n)):
        with pytest.raises(IndexError):
            data[key]
        with pytest.raises(IndexError):
            packets[key]


@pytest.mark.parametrize("data", cases())
def test_slice_keys_give_views(data):
    packets = PacketArray(data)
    for key in (
        slice(None), slice(1, None), slice(None, -1), slice(None, None, 2),
        slice(None, None, -3), slice(5, 2), slice(-4, None),
    ):
        assert_same(packets[key], data[key])
        if len(data[key]):
            assert np.shares_memory(packets[key].data, data)


@pytest.mark.parametrize("data", cases())
def test_int_array_keys(data):
    rng = np.random.default_rng(len(data))
    n = len(data)
    keys = [
        np.empty(0, np.int64),
        np.arange(n),
        np.arange(n)[::-1],
        rng.integers(0, n, 2 * n) if n else np.empty(0, np.int64),
        rng.integers(-n, 0, n) if n else np.empty(0, np.int64),
        np.arange(n, dtype=np.uint32),
    ]
    packets = PacketArray(data)
    for key in keys:
        assert_same(packets[key], data[key])
        assert_same(packets.select(key), data[key])


@pytest.mark.parametrize("data", cases())
def test_bool_keys(data):
    rng = np.random.default_rng(len(data) + 1)
    n = len(data)
    packets = PacketArray(data)
    for mask in (
        np.zeros(n, bool), np.ones(n, bool), rng.random(n) < 0.5, rng.random(n) < 0.05
    ):
        assert_same(packets[mask], data[mask])
        assert_same(packets.select(mask), data[mask])
    with pytest.raises(IndexError):
        packets[np.ones(n + 1, bool)]


@pytest.mark.parametrize("data", cases())
def test_app_and_range_selections(data):
    packets = PacketArray(data)
    if len(data):
        app = data["app"][len(data) // 2]
        assert_same(packets.for_app(app), data[data["app"] == app])
    ts = data["timestamp"]
    assert_same(packets.in_range(1.0, 10.0), data[(ts >= 1.0) & (ts < 10.0)])


@pytest.mark.parametrize("data", cases())
def test_sorted_by_time_keeps_tied_rows_in_order(data):
    want = data[np.argsort(data["timestamp"], kind="stable")]
    assert_same(PacketArray(data).sorted_by_time(), want)


@pytest.mark.parametrize("data", cases())
def test_retimed_is_copy_assign_sort(data):
    rng = np.random.default_rng(len(data) + 2)
    n = len(data)
    mask = rng.random(n) < 0.3
    for rows in (mask, np.flatnonzero(mask), np.empty(0, np.int64), np.arange(n)):
        times = rng.integers(0, max(n // 3, 1), len(data[rows])) * 0.5
        want = data.copy()
        want["timestamp"][rows] = times
        want = want[np.argsort(want["timestamp"], kind="stable")]
        before = data.tobytes()
        assert_same(PacketArray(data).retimed(rows, times), want)
        assert data.tobytes() == before


def test_concat_of_none_one_and_many():
    assert_same(PacketArray.concat([]), np.empty(0, PACKET_DTYPE))
    parts = [
        view
        for n in SIZES
        for view in views(random_records(n, seed=100 + n)).values()
    ]
    for chosen in ([parts[0]], [parts[5]], parts[:4], parts, parts[::-1]):
        got = PacketArray.concat([PacketArray(p) for p in chosen])
        assert_same(got, np.concatenate(chosen))
        assert not any(np.shares_memory(got.data, p) for p in chosen)


@pytest.mark.parametrize("data", cases())
def test_from_buffer_is_a_writable_copy(data):
    buffer = data.tobytes()
    for source in (buffer, bytearray(buffer), memoryview(buffer)):
        assert_same(
            PacketArray.from_buffer(source), np.frombuffer(buffer, PACKET_DTYPE).copy()
        )
    with pytest.raises(ValueError):
        PacketArray.from_buffer(buffer + b"x")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A saved 3-user study and its per-user CSVs."""
    directory = tmp_path_factory.mktemp("moves")
    dataset = generate_study(StudyConfig(n_users=3, duration_days=1.0, seed=11))
    npz = directory / "s.npz"
    dataset.save(npz)
    pairs = []
    for user in dataset.users:
        packets = directory / f"u{user.user_id}.csv"
        events = directory / f"u{user.user_id}.events.csv"
        write_packets_csv(packets, user.packets, dataset.registry)
        write_events_csv(events, user.events, dataset.registry)
        pairs.append((packets, events))
    return npz, pairs


def stream_chunks(source, uid, skip, armed):
    """``source.iter_chunks(uid, skip)``; ``armed`` installs an empty
    fault plan, under which a CSV source parses its file again and
    rechunks the parsed blocks instead of reading its spill."""
    if not armed:
        return list(source.iter_chunks(uid, skip))
    with faults.installed(FaultPlan([])):
        return list(source.iter_chunks(uid, skip))


@pytest.mark.parametrize("chunk_size", [1, 7, 1000, 10**6])
@pytest.mark.parametrize("skip", [0, 5, 2049])
def test_stream_chunks_are_the_batch_records(study, chunk_size, skip):
    npz, pairs = study
    csv = CsvStreamSource(pairs, chunk_size=chunk_size)
    for source, batch, armed in (
        (NpzStreamSource(npz, chunk_size=chunk_size), Dataset.load(npz), False),
        (csv, dataset_from_csv(pairs), False),
        (csv, dataset_from_csv(pairs), True),
    ):
        for uid in source.user_ids:
            chunks = stream_chunks(source, uid, skip, armed)
            assert all(c.data.flags.writeable for c in chunks)
            assert all(0 < len(c) <= chunk_size for c in chunks)
            got = np.concatenate([np.empty(0, PACKET_DTYPE)] + [c.data for c in chunks])
            want = batch.user(uid).packets.data[skip:]
            assert got.tobytes() == want.tobytes()
