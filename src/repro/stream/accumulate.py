"""Per-user streaming accumulators and the finished study readout.

The accumulation tier of the streaming stack, split out of
``stream.ingest`` so shard executors and mergers (:mod:`repro.shard`)
can reuse it without importing the driver: one
:class:`UserStreamAccumulator` per user carries the radio state and a
partial :class:`~repro.keyed.UserTotals` across chunks, and a completed
run's accumulators become a :class:`StreamResult` — a totals-tier
:class:`~repro.core.readout.EnergyReadout` with one
:class:`~repro.core.readout.UserTotalsView` per user. Each user's
totals are bit-identical to the batch engine's, and the base class
folds them into study-wide totals exactly as it folds the batch
study's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.periodicity import DEFAULT_BURST_GAP
from repro.core.readout import DEFAULT_FLOW_GAP, TotalsReadout, UserTotalsView
from repro.errors import TaskFailure
from repro.keyed import UserTotals
from repro.radio.attribution import TailPolicy
from repro.radio.base import RadioModel
from repro.radio.streaming import (
    FinalizedChunk,
    RadioCarry,
    StreamingAttribution,
)
from repro.stream.cadence import CadenceTracker
from repro.stream.checkpoint import TOTALS_NAME, UserCheckpoint
from repro.trace.arrays import PacketArray


class UserStreamAccumulator:
    """One user's in-flight state: a live radio simulation plus partials.

    :meth:`feed` is the one per-user streaming step, which the ingestor
    and the follower both call: the user's own
    :class:`~repro.radio.streaming.StreamingAttribution` settles the
    chunk, the settled packets fold into the
    :class:`~repro.keyed.UserTotals` partials and the raw chunk
    into the cadence tracker.
    """

    def __init__(
        self,
        user_id: int,
        window: Tuple[float, float],
        model: RadioModel,
        policy: TailPolicy,
        cadence: bool = True,
        carry: Optional[RadioCarry] = None,
    ) -> None:
        self.user_id = user_id
        self.window = window
        self.radio = StreamingAttribution(model, policy, window, carry)
        self.rows_consumed = 0
        self.done = False
        self.idle_energy = 0.0
        self.totals = UserTotals()
        self.cadence: Optional[CadenceTracker] = (
            CadenceTracker() if cadence else None
        )
        #: A done user's checkpointed carry: the one it had before
        #: :meth:`finish`, which is what checkpoints have always held.
        self._done_carry: Optional[Dict[str, np.ndarray]] = None

    def feed(self, chunk: PacketArray) -> FinalizedChunk:
        """Attribute one time-ordered chunk; return the packets it settled.

        Raises the radio layer's typed error on a chunk it cannot
        accept, before any state changes.
        """
        settled = self.radio.feed(chunk)
        self._add(settled)
        if self.cadence is not None:
            self.cadence.observe(chunk)
        self.rows_consumed += len(chunk)
        return settled

    def finish(self) -> None:
        """Settle the pending packet and the idle floor."""
        self._done_carry = self._carry_payload()
        settled, self.idle_energy = self.radio.finish()
        self._add(settled)
        self.done = True

    def _add(self, settled: FinalizedChunk) -> None:
        self.totals.add(
            settled.apps, settled.per_packet, settled.states, settled.sizes
        )

    def _carry_payload(self) -> Optional[Dict[str, np.ndarray]]:
        """The carry as a checkpoint stores it: none before any packet."""
        if self.done:
            return self._done_carry
        carry = self.radio.carry
        return carry.to_payload() if carry.n_packets else None

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def to_checkpoint(self) -> UserCheckpoint:
        carry = self._carry_payload()
        if self.done:
            status = "done"
        elif self.rows_consumed or carry is not None:
            status = "running"
        else:
            status = "pending"
        return UserCheckpoint(
            user_id=self.user_id,
            status=status,
            rows_consumed=self.rows_consumed,
            carry=carry,
            totals=self.totals.arrays(TOTALS_NAME),
            idle_energy=self.idle_energy,
            window=self.window,
            cadence=(
                self.cadence.payload() if self.cadence is not None else None
            ),
        )

    @classmethod
    def from_checkpoint(
        cls,
        saved: UserCheckpoint,
        window: Tuple[float, float],
        model: RadioModel,
        policy: TailPolicy,
    ) -> "UserStreamAccumulator":
        acc = cls(
            saved.user_id,
            window,
            model,
            policy,
            cadence=saved.cadence is not None,
            carry=(
                RadioCarry.from_payload(saved.carry)
                if saved.carry is not None
                else None
            ),
        )
        acc.rows_consumed = saved.rows_consumed
        acc.done = saved.status == "done"
        if acc.done:
            acc._done_carry = saved.carry
        acc.idle_energy = saved.idle_energy
        acc.totals = UserTotals.from_arrays(saved.totals, TOTALS_NAME)
        if saved.cadence is not None:
            acc.cadence = CadenceTracker.from_payload(saved.cadence)
        return acc


class StreamResult(TotalsReadout):
    """Study-wide totals of one completed streaming ingestion.

    A totals-tier :class:`~repro.core.readout.EnergyReadout`: its
    study-wide totals are the base class's fold of the per-user totals
    in ingestion order, the fold a batch
    :class:`~repro.core.accounting.StudyEnergy` runs, so each is
    bit-identical to its batch counterpart.
    """

    def __init__(
        self,
        users: List[UserTotalsView],
        failures: Optional[Dict[int, TaskFailure]] = None,
        *,
        registry=None,
        windows=None,
        cadences=None,
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> None:
        super().__init__(
            users,
            registry=registry,
            windows=windows,
            cadences=cadences,
            flow_gap=flow_gap,
            burst_gap=burst_gap,
        )
        #: Quarantined users: ``{user_id: TaskFailure}``. Only populated
        #: when the ingestor ran with ``quarantine=True``; these users'
        #: partial totals are *excluded* from every reduction.
        self.failures: Dict[int, TaskFailure] = dict(failures or {})
