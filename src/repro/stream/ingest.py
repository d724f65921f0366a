"""Streaming ingestion driver with incremental, batch-identical accounting.

:class:`StreamIngestor` drives a chunk source
(:class:`~repro.stream.chunks.CsvStreamSource` or
:class:`~repro.stream.chunks.NpzStreamSource`) through the resumable
radio layer (:class:`~repro.radio.streaming.StreamingAttribution`) and
folds every settled packet into per-user partial totals via
:class:`~repro.stream.accumulate.UserStreamAccumulator`. The finished
:class:`~repro.stream.accumulate.StreamResult` is a totals-tier
:class:`~repro.core.readout.EnergyReadout`: per-app, per-(app, state)
and per-state energy, byte volumes and idle floors **bit-identical** to
:class:`~repro.core.accounting.StudyEnergy` over the same data —
``array_equal``, not ``allclose`` — while peak memory stays
O(workers × chunk).

The accounting tiers live in sibling modules so the shard layer
(:mod:`repro.shard`) can reuse them without the driver:
:mod:`repro.stream.cadence` (incremental Table 1 cadence) and
:mod:`repro.stream.accumulate` (per-user partials + study readout).
Their public names are re-exported here for backward compatibility.

Periodic :class:`~repro.stream.checkpoint.StreamCheckpoint` snapshots
make the run killable: ``run(resume=True)`` reloads the carries and
partials and continues without recomputing a single settled packet.
When the ingestor runs as one shard of a sharded plan, ``shard_info``
stamps every snapshot with the shard header so a partial checkpoint can
never be mistaken for (or merged as) a whole-study one.

Parallelism: chunk rounds fan out over a persistent
:class:`~repro.parallel.TaskPool` — workers do the vector math
(:meth:`StreamingAttribution.feed`) and ship back settled arrays plus
the new carry; the parent performs *all* float accumulation itself,
sequentially, so results are identical for any worker count.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.periodicity import DEFAULT_BURST_GAP
from repro.core.readout import DEFAULT_FLOW_GAP
from repro.errors import ReproError, StreamError, TaskFailure
from repro.metrics import RunMetrics
from repro.parallel import TaskPool, resolve_workers
from repro.radio.attribution import TailPolicy
from repro.radio.base import RadioModel
from repro.radio.lte import LTE_DEFAULT
from repro.radio.streaming import RadioCarry, StreamingAttribution
from repro.stream.accumulate import (
    StreamResult,
    UserStreamAccumulator,
    UserStreamResult,
)
from repro.stream.cadence import CadenceTracker
from repro.stream.checkpoint import StreamCheckpoint
from repro.stream.chunks import StreamSource
from repro.trace.arrays import PacketArray

__all__ = [
    "CadenceTracker",
    "StreamChunkTask",
    "StreamIngestor",
    "StreamResult",
    "UserStreamAccumulator",
    "UserStreamResult",
]


class StreamChunkTask:
    """Picklable per-chunk radio step for :class:`~repro.parallel.TaskPool`.

    Per-round data cannot live on the task (the pool ships the task
    once, at creation), so each item carries ``(user_id, window, carry
    payload, chunk records)`` and returns the settled arrays plus the
    advanced carry. No accumulation happens here, so any worker count
    yields identical results.
    """

    def __init__(self, model: RadioModel, policy: TailPolicy) -> None:
        self.model = model
        self.policy = policy

    def __call__(self, item):
        user_id, window, carry_payload, chunk_data = item
        carry = (
            RadioCarry.from_payload(carry_payload)
            if carry_payload is not None
            else None
        )
        sim = StreamingAttribution(self.model, self.policy, window, carry)
        settled = sim.feed(PacketArray(chunk_data))
        return (
            user_id,
            (settled.apps, settled.states, settled.sizes, settled.per_packet),
            sim.carry.to_payload(),
        )


class StreamIngestor:
    """Drive a chunk source to a batch-identical :class:`StreamResult`.

    Args:
        source: A :class:`~repro.stream.chunks.CsvStreamSource` or
            :class:`~repro.stream.chunks.NpzStreamSource`.
        model: Radio power model (default: the paper's LTE constants).
        policy: Tail-energy attribution rule.
        workers: Chunk rounds fan out over this many processes; also
            the number of users in flight at once, so peak memory is
            O(workers × chunk). ``1`` (default) stays in process.
        checkpoint_path: Where snapshots are written; required for
            ``checkpoint_every``, ``max_chunks`` and ``resume``.
        checkpoint_every: Snapshot after every N processed chunks
            (``0`` disables periodic snapshots).
        metrics: A shared :class:`~repro.metrics.RunMetrics`; a private
            one is created when omitted.
        retries: Retry a failed/crashed/timed-out chunk task this many
            times (exponential backoff) before giving up on it. Chunk
            tasks are pure, so a retried run stays bit-identical.
        task_timeout: Seconds to wait for one chunk task before
            declaring its worker hung and rebuilding the pool.
        quarantine: When a chunk task exhausts its retries, quarantine
            that *user* (drop them from the result, record the
            :class:`~repro.errors.TaskFailure` in
            :attr:`StreamResult.failures`) instead of aborting the run.
        cadence: Track background flow/burst cadence per user (at the
            paper's default gaps) so the streamed readout can render
            Table 1. Disable to shave the tracker's memory when only
            Figs 1-3 are needed.
        shard_info: When this ingestor runs one shard of a sharded
            plan, the shard header dict (``index``/``of``/``manifest``/
            ``parent_signature``) stamped into every checkpoint it
            writes. Whole-study runs leave it ``None``.
    """

    def __init__(
        self,
        source: StreamSource,
        model: RadioModel = LTE_DEFAULT,
        policy: TailPolicy = TailPolicy.LAST_PACKET,
        *,
        workers: Optional[int] = 1,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        metrics: Optional[RunMetrics] = None,
        retries: int = 0,
        task_timeout: Optional[float] = None,
        quarantine: bool = False,
        cadence: bool = True,
        shard_info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.source = source
        self.model = model
        self.policy = policy
        self.workers = resolve_workers(workers)
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = int(checkpoint_every)
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.retries = int(retries)
        self.task_timeout = task_timeout
        self.quarantine = bool(quarantine)
        self.cadence = bool(cadence)
        self.shard_info = dict(shard_info) if shard_info is not None else None
        if self.checkpoint_every and self.checkpoint_path is None:
            raise StreamError("checkpoint_every needs a checkpoint_path")

    def run(
        self,
        resume: bool = False,
        max_chunks: Optional[int] = None,
    ) -> Optional[StreamResult]:
        """Ingest every user; return the study totals.

        With ``resume=True`` the run continues from
        ``checkpoint_path`` — done users are never re-read, a
        mid-stream user seeks past its consumed rows and picks its
        radio carry back up mid-tail. ``max_chunks`` stops the run
        after that many chunks, writes a checkpoint and returns
        ``None`` (the bounded-slice / kill-simulation mode).

        On an aborting :class:`~repro.errors.ReproError` (a poison
        task out of retries, a malformed row without quarantine, a
        truncated archive member) the accumulators are still consistent
        at the last completed round, so when a ``checkpoint_path`` is
        set a final checkpoint is written before the error propagates —
        the failed run costs one chunk round, not the whole ingestion.
        """
        if max_chunks is not None and self.checkpoint_path is None:
            raise StreamError("max_chunks needs a checkpoint_path")
        accs = self._initial_accumulators(resume)
        order = self.source.user_ids
        active = [uid for uid in order if not accs[uid].done]
        failed: Dict[int, TaskFailure] = {}
        iterators = {}
        chunks_this_run = 0
        since_checkpoint = 0
        task = StreamChunkTask(self.model, self.policy)
        self.source.quarantine.flush_to(self.metrics)
        try:
            with TaskPool(
                task,
                self.workers,
                retries=self.retries,
                task_timeout=self.task_timeout,
                quarantine=self.quarantine,
                metrics=self.metrics,
            ) as pool:
                while active:
                    items = []
                    chunk_rows = []
                    exhausted = []
                    with self.metrics.stage("stream.read"):
                        for uid in list(active):
                            if len(items) >= self.workers:
                                break
                            iterator = iterators.get(uid)
                            if iterator is None:
                                iterator = self.source.iter_chunks(
                                    uid, skip=accs[uid].rows_consumed
                                )
                                iterators[uid] = iterator
                            chunk = next(iterator, None)
                            if chunk is None:
                                exhausted.append(uid)
                            else:
                                acc = accs[uid]
                                items.append(
                                    (uid, acc.window, acc.carry, chunk.data)
                                )
                                chunk_rows.append(len(chunk))
                    with self.metrics.stage("stream.attribute"):
                        for uid in exhausted:
                            accs[uid].finish(self.model, self.policy)
                            active.remove(uid)
                            self.metrics.count("stream.users")
                        if items:
                            results = pool.map(items)
                            for item, result, rows in zip(
                                items, results, chunk_rows
                            ):
                                uid = item[0]
                                if isinstance(result, TaskFailure):
                                    # This user's chunk is poison even
                                    # after retries: drop the user, keep
                                    # the run (their checkpointed state
                                    # stays "running" for a later fix +
                                    # resume).
                                    active.remove(uid)
                                    failed[uid] = result
                                    self.metrics.count(
                                        "faults.users_quarantined"
                                    )
                                    continue
                                _, settled, carry = result
                                accs[uid].adopt(settled, carry)
                                accs[uid].observe_chunk(
                                    PacketArray(item[3])
                                )
                                accs[uid].rows_consumed += rows
                                self.metrics.count("stream.chunks")
                                self.metrics.count("stream.packets", rows)
                            chunks_this_run += len(items)
                            since_checkpoint += len(items)
                    if (
                        max_chunks is not None
                        and chunks_this_run >= max_chunks
                    ):
                        if active:
                            self._save_checkpoint(accs, order)
                            return None
                        break
                    if (
                        self.checkpoint_every
                        and since_checkpoint >= self.checkpoint_every
                        and active
                    ):
                        self._save_checkpoint(accs, order)
                        since_checkpoint = 0
        except ReproError:
            if self.checkpoint_path is not None:
                self._save_checkpoint(accs, order)
            raise
        ok = [uid for uid in order if uid not in failed]
        result = StreamResult(
            [UserStreamResult(accs[uid]) for uid in ok],
            failures=failed,
            registry=self.source.registry,
            windows={uid: self.source.window(uid) for uid in ok},
            cadences=(
                {uid: accs[uid].cadence.summary() for uid in ok}
                if all(accs[uid].cadence is not None for uid in ok)
                else None
            ),
        )
        if self.checkpoint_path is not None:
            self._save_checkpoint(accs, order)
        return result

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _initial_accumulators(
        self, resume: bool
    ) -> Dict[int, UserStreamAccumulator]:
        order = self.source.user_ids
        if not resume:
            return {
                uid: UserStreamAccumulator(
                    uid, self.source.window(uid), cadence=self.cadence
                )
                for uid in order
            }
        if self.checkpoint_path is None:
            raise StreamError("resume needs a checkpoint_path")
        checkpoint = StreamCheckpoint.load(self.checkpoint_path)
        if checkpoint.loaded_from_fallback:
            self.metrics.count("faults.checkpoint_fallback")
        checkpoint.verify(
            self.source.signature(), self.model, self.policy
        )
        if checkpoint.shard != self.shard_info:
            raise StreamError(
                "checkpoint shard header does not match this run: "
                f"checkpoint {checkpoint.shard!r}, run {self.shard_info!r}"
            )
        saved = {user.user_id: user for user in checkpoint.users}
        if set(saved) != set(order):
            raise StreamError(
                "checkpoint user set does not match the source"
            )
        return {
            uid: UserStreamAccumulator.from_checkpoint(
                saved[uid], self.source.window(uid)
            )
            for uid in order
        }

    def _save_checkpoint(
        self, accs: Dict[int, UserStreamAccumulator], order: List[int]
    ) -> None:
        with self.metrics.stage("stream.checkpoint"):
            checkpoint = StreamCheckpoint(
                self.source.signature(),
                self.model,
                self.policy,
                [accs[uid].to_checkpoint() for uid in order],
                registry_json=self.source.registry.to_json(),
                has_cadence=all(
                    accs[uid].cadence is not None for uid in order
                ),
                cadence_flow_gap=DEFAULT_FLOW_GAP,
                cadence_burst_gap=DEFAULT_BURST_GAP,
                shard=self.shard_info,
            )
            checkpoint.save(self.checkpoint_path)
            self.metrics.count("stream.checkpoints")
