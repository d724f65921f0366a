"""Both stream sources hold one chunk at a time, not one trace.

Streaming exists so that a study larger than RAM can be ingested: the
peak memory of building a source and iterating every chunk must not
grow with the packet count. Measured with :mod:`tracemalloc` (numpy
reports its buffers to it) on one user of N and of 4N packets: the
larger input may cost at most a quarter of its extra records' bytes
more, so a source that kept every parsed record in memory (24 bytes a
row) fails, and so does one that kept a quarter of them.
"""

import tracemalloc

import numpy as np
import pytest

from repro.stream import CsvStreamSource, NpzStreamSource
from repro.trace.arrays import PACKET_DTYPE, PacketArray
from repro.trace.dataset import AppInfo, AppRegistry, Dataset
from repro.trace.events import EventLog
from repro.trace.io_text import write_packets_csv
from repro.trace.trace import UserTrace

N = 50_000
CHUNK = 8192


def one_user(directory, n, kind):
    """A source factory over one user's ``n`` time-sorted packets."""
    rng = np.random.default_rng(n)
    packets = PacketArray.from_columns(
        np.cumsum(rng.uniform(0.001, 1.0, n)),
        rng.integers(40, 1500, n).astype(np.uint32),
        rng.integers(0, 2, n).astype(np.uint8),
        rng.integers(1, 4, n).astype(np.uint16),
        rng.integers(0, 64, n).astype(np.uint32),
    )
    registry = AppRegistry([AppInfo(i, f"app.{i}", "other") for i in (1, 2, 3)])
    directory.mkdir()
    if kind == "csv":
        path = directory / "p.csv"
        write_packets_csv(path, packets, registry)
        return lambda: CsvStreamSource([(path, None)], chunk_size=CHUNK)
    end = float(np.ceil(packets.timestamps[-1]))
    trace = UserTrace(1, 0.0, end, packets, EventLog())
    path = Dataset(registry, [trace]).save(directory / "s.npz")
    return lambda: NpzStreamSource(path, chunk_size=CHUNK)


def peak_bytes(build):
    """Traced peak of building a source and iterating its user's chunks."""
    tracemalloc.start()
    try:
        source = build()
        rows = sum(len(chunk) for chunk in source.iter_chunks(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == source.n_packets(1)
    return peak


@pytest.mark.parametrize("kind", ["csv", "npz"])
def test_peak_memory_does_not_grow_with_the_trace(tmp_path, kind):
    small = one_user(tmp_path / "small", N, kind)
    large = one_user(tmp_path / "large", 4 * N, kind)
    peak_bytes(small)  # warm-up: first-call allocations and caches
    small_peak = peak_bytes(small)
    large_peak = peak_bytes(large)
    extra_bytes = 3 * N * PACKET_DTYPE.itemsize
    assert large_peak < small_peak + extra_bytes / 4, (
        f"{kind}: peak {large_peak / 1e6:.2f} MB over {4 * N} rows against "
        f"{small_peak / 1e6:.2f} MB over {N}"
    )
