"""Streaming ingestion driver with incremental, batch-identical accounting.

:class:`StreamIngestor` drives a chunk source
(:class:`~repro.stream.chunks.CsvStreamSource` or
:class:`~repro.stream.chunks.NpzStreamSource`) through one
:class:`~repro.stream.accumulate.UserStreamAccumulator` per user, whose
:meth:`~repro.stream.accumulate.UserStreamAccumulator.feed` runs the
resumable radio layer
(:class:`~repro.radio.streaming.StreamingAttribution`) and folds every
settled packet into per-user partial totals. The finished
:class:`~repro.stream.accumulate.StreamResult` is a totals-tier
:class:`~repro.core.readout.EnergyReadout`: per-app, per-(app, state)
and per-state energy, byte volumes and idle floors **bit-identical** to
:class:`~repro.core.accounting.StudyEnergy` over the same data —
``array_equal``, not ``allclose`` — while peak memory stays O(chunk)
plus each user's carry and cadence state.

The accounting tiers live in sibling modules so the shard layer
(:mod:`repro.shard`) can reuse them without the driver:
:mod:`repro.stream.cadence` (incremental Table 1 cadence) and
:mod:`repro.stream.accumulate` (per-user partials + study readout).

Periodic :class:`~repro.stream.checkpoint.StreamCheckpoint` snapshots
make the run killable: ``run(resume=True)`` reloads the carries and
partials and continues without recomputing a single settled packet.
When the ingestor runs as one shard of a sharded plan, ``shard_info``
stamps every snapshot with the shard header so a partial checkpoint can
never be mistaken for (or merged as) a whole-study one.

The ingestor runs in process. Each chunk needs the previous chunk's
carry, so the only parallelism is across users, and that is what
:mod:`repro.shard` provides: one process per shard of users, where the
shard pool also isolates crashes and times out hung shards.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.periodicity import DEFAULT_BURST_GAP
from repro.core.readout import DEFAULT_FLOW_GAP, UserTotalsView
from repro.errors import ReproError, StreamError, TaskFailure
from repro.metrics import RunMetrics
from repro.radio.attribution import TailPolicy
from repro.radio.base import RadioModel
from repro.radio.lte import LTE_DEFAULT
from repro.stream.accumulate import StreamResult, UserStreamAccumulator
from repro.stream.checkpoint import StreamCheckpoint
from repro.stream.chunks import StreamSource

__all__ = ["StreamIngestor"]


class StreamIngestor:
    """Drive a chunk source to a batch-identical :class:`StreamResult`.

    Args:
        source: A :class:`~repro.stream.chunks.CsvStreamSource` or
            :class:`~repro.stream.chunks.NpzStreamSource`.
        model: Radio power model (default: the paper's LTE constants).
        policy: Tail-energy attribution rule.
        workers: Must be ``1``, the only value accepted: the ingestor
            runs in process. Ingest users in parallel with
            :mod:`repro.shard`.
        checkpoint_path: Where snapshots are written; required for
            ``checkpoint_every``, ``max_chunks`` and ``resume``.
        checkpoint_every: Snapshot after every N processed chunks
            (``0`` disables periodic snapshots).
        metrics: A shared :class:`~repro.metrics.RunMetrics`; a private
            one is created when omitted.
        quarantine: When a user's chunk raises a
            :class:`~repro.errors.ReproError`, quarantine that *user*
            (drop them from the result, record a
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
        workers: int = 1,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        metrics: Optional[RunMetrics] = None,
        quarantine: bool = False,
        cadence: bool = True,
        shard_info: Optional[Dict[str, Any]] = None,
    ) -> None:
        if workers != 1:
            raise ValueError(
                f"workers must be 1, got {workers!r}: the ingestor runs "
                "in process; ingest users in parallel with repro.shard"
            )
        self.source = source
        self.model = model
        self.policy = policy
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = int(checkpoint_every)
        self.metrics = metrics if metrics is not None else RunMetrics()
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

        Users are read in source order, one chunk per pass; a user is
        finished on the pass whose read finds it exhausted.

        On an aborting :class:`~repro.errors.ReproError` (a chunk the
        radio layer rejects without quarantine, a malformed row without
        quarantine, a truncated archive member) the accumulators are
        still consistent at the last completed chunk, so when a
        ``checkpoint_path`` is set a final checkpoint is written before
        the error propagates — the failed run costs one chunk, not the
        whole ingestion.
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
        self.source.quarantine.flush_to(self.metrics)
        try:
            while active:
                owner, chunk = None, None
                exhausted = []
                with self.metrics.stage("stream.read"):
                    for uid in active:
                        iterator = iterators.get(uid)
                        if iterator is None:
                            iterator = self.source.iter_chunks(
                                uid, skip=accs[uid].rows_consumed
                            )
                            iterators[uid] = iterator
                        chunk = next(iterator, None)
                        if chunk is not None:
                            owner = uid
                            break
                        exhausted.append(uid)
                with self.metrics.stage("stream.attribute"):
                    for uid in exhausted:
                        accs[uid].finish()
                        active.remove(uid)
                        self.metrics.count("stream.users")
                    if chunk is not None:
                        self._feed(accs[owner], chunk, active, failed)
                        chunks_this_run += 1
                        since_checkpoint += 1
                if max_chunks is not None and chunks_this_run >= max_chunks:
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
            [
                UserTotalsView(
                    uid, *accs[uid].totals.as_dicts(), accs[uid].idle_energy
                )
                for uid in ok
            ],
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

    def _feed(
        self,
        acc: UserStreamAccumulator,
        chunk,
        active: List[int],
        failed: Dict[int, TaskFailure],
    ) -> None:
        """Feed one chunk; under quarantine a rejected chunk drops its user.

        A quarantined user's checkpointed state stays ``running`` at
        its last good chunk, for a later fix and resume.
        """
        try:
            acc.feed(chunk)
        except ReproError as exc:
            if not self.quarantine:
                raise
            active.remove(acc.user_id)
            failed[acc.user_id] = TaskFailure(
                acc.user_id, f"user {acc.user_id}", 1, "error", repr(exc)
            )
            self.metrics.count("faults.users_quarantined")
            return
        self.metrics.count("stream.chunks")
        self.metrics.count("stream.packets", len(chunk))

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
                    uid,
                    self.source.window(uid),
                    self.model,
                    self.policy,
                    cadence=self.cadence,
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
                saved[uid], self.source.window(uid), self.model, self.policy
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
