"""Bounded-memory streaming ingestion with checkpoint/resume.

The batch pipeline loads a whole :class:`~repro.trace.dataset.Dataset`
before anything runs; this package consumes the same inputs — the
``io_text`` CSV schemas or a saved ``.npz`` archive — in time-ordered,
bounded-size chunks and maintains an *incremental* per-user energy
accounting whose results are bit-identical to
:class:`~repro.core.accounting.StudyEnergy` (``array_equal``, never
``allclose``). Radio state and the pending tail owner cross chunk
boundaries inside a :class:`~repro.radio.streaming.RadioCarry`; the
carry plus all partial totals persist in a :class:`StreamCheckpoint`,
so a killed run resumes with no recomputation. An ingest runs in
process, one chunk at a time through each user's
:meth:`UserStreamAccumulator.feed`; users run in parallel only as
shards (:mod:`repro.shard`).

Typical use::

    from repro.stream import NpzStreamSource, StreamIngestor

    source = NpzStreamSource("study.npz", chunk_size=65536)
    ingestor = StreamIngestor(source, checkpoint_path="run.ckpt.npz")
    result = ingestor.run()            # or run(resume=True) after a kill
    print(result.energy_by_app())

The same surface is exposed on the command line as ``repro ingest``.
"""

from repro.stream.accumulate import StreamResult, UserStreamAccumulator
from repro.stream.cadence import CadenceTracker
from repro.stream.checkpoint import StreamCheckpoint, UserCheckpoint
from repro.stream.chunks import (
    DEFAULT_CHUNK_SIZE,
    CsvStreamSource,
    NpzStreamSource,
    RowQuarantine,
)
from repro.stream.ingest import StreamIngestor

__all__ = [
    "CadenceTracker",
    "CsvStreamSource",
    "DEFAULT_CHUNK_SIZE",
    "NpzStreamSource",
    "RowQuarantine",
    "StreamCheckpoint",
    "StreamIngestor",
    "StreamResult",
    "UserCheckpoint",
    "UserStreamAccumulator",
]
