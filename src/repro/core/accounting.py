"""Study-wide energy accounting.

:class:`StudyEnergy` runs the radio model over every user's merged
packet timeline once (the radio is shared per device, so attribution
must happen device-wide) and keeps the per-packet attribution in
memory. Per-packet analyses reduce those arrays; totals-tier ones read
the per-user :meth:`StudyEnergy.user_totals` views, which the
:class:`~repro.core.readout.EnergyReadout` base class folds into every
study-wide total, the same fold a stream result or a loaded checkpoint
runs.

Each user is attributed by one in-process
:func:`~repro.radio.attribution.attribute_energy` call: a few numpy
passes over the packets, cheaper than shipping the result back from a
worker pool (docs/PERFORMANCE.md, "Why batch attribution has no pool").
With ``lazy=True`` nothing is computed at construction; each user's
attribution is computed on first access and memoized, and any
study-wide reduction attributes the remaining users in dataset order.

A :class:`~repro.metrics.RunMetrics` instance (own or injected) records
attribution time and user/packet counts, plus the shared per-user
:class:`~repro.trace.index.TraceIndex` layer's build time
(``index.build`` stage) and reuse counts (``index.hits``). Every
per-app reduction here goes through :meth:`StudyEnergy.index_for`
rather than re-scanning the packet arrays; ``prepare_indexes()``
builds every index up front.

The paper's invariant holds by construction and is property-tested: the
total cellular energy of a device equals the sum over apps of the
energy attributed to them, plus the radio's idle floor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.core.readout import (
    DEFAULT_FLOW_GAP,
    AppCadence,
    EnergyReadout,
    ReadoutProvenance,
    UserCadence,
    UserTotalsView,
    fold_once,
    merge_keyed_totals,
)
from repro.core.periodicity import (
    DEFAULT_BURST_GAP,
    burst_starts,
    inter_burst_intervals,
)
from repro.errors import AnalysisError
from repro.keyed import UserTotals
from repro.metrics import RunMetrics
from repro.radio import attribution  # attribute_energy, looked up per call
from repro.radio.attribution import AttributionResult, TailPolicy
from repro.radio.base import RadioModel
from repro.radio.lte import LTE_DEFAULT
from repro.trace.dataset import AppRegistry, Dataset
from repro.trace.flow import count_flows
from repro.trace.index import TraceIndex
from repro.trace.trace import UserTrace
from repro.units import DAY


class StudyEnergy(EnergyReadout):
    """Per-packet energy attribution for every user of a dataset.

    An :class:`~repro.core.readout.EnergyReadout`: every study-wide
    total is the base class's fold of :meth:`user_totals`, except
    :meth:`bytes_by_app`, which reads the packet arrays.

    Args:
        dataset: The study to attribute.
        model: Radio power model (default: the paper's LTE constants).
        policy: Tail-energy attribution rule.
        workers: Must be ``1``, the only value accepted: attribution
            runs in process.
        lazy: Defer all computation to first access.
        metrics: A shared :class:`RunMetrics` to record into; a private
            one is created when omitted.
    """

    #: This readout holds the full per-packet arrays — every analysis
    #: tier works, including the ones gated by
    #: :func:`~repro.core.readout.require_packet_detail`.
    has_packet_detail = True

    def __init__(
        self,
        dataset: Dataset,
        model: RadioModel = LTE_DEFAULT,
        policy: TailPolicy = TailPolicy.LAST_PACKET,
        *,
        workers: int = 1,
        lazy: bool = False,
        metrics: Optional[RunMetrics] = None,
    ) -> None:
        if workers != 1:
            raise ValueError(
                f"workers must be 1, got {workers!r}: batch attribution "
                "runs in process"
            )
        self.dataset = dataset
        self.model = model
        self.policy = policy
        self.metrics = metrics if metrics is not None else RunMetrics()
        self._order: List[int] = [t.user_id for t in dataset]
        self._traces: Dict[int, UserTrace] = {t.user_id: t for t in dataset}
        self._results: Dict[int, AttributionResult] = {}
        self._user_totals: Dict[int, UserTotalsView] = {}
        if not lazy:
            self.materialize()

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def materialize(self) -> "StudyEnergy":
        """Compute every user not yet attributed (idempotent)."""
        pending = [uid for uid in self._order if uid not in self._results]
        if not pending:
            return self
        with self.metrics.stage("attribute"):
            for uid in pending:
                self._attribute(self._traces[uid])
        return self

    def index_for(self, user_id: int) -> TraceIndex:
        """One user's shared :class:`~repro.trace.index.TraceIndex`.

        The index is memoized on the trace itself, so every analysis
        over this study — and any other engine over the same dataset —
        sees the same partition: one app-grouping sort per user, ever.
        Build time and reuse counts land in this engine's metrics
        (``index.build`` stage, ``index.hits`` counter). The index is
        derived state: it never enters the study's provenance key.
        """
        return self._trace(user_id).index(metrics=self.metrics)

    def prepare_indexes(self) -> "StudyEnergy":
        """Build every user's index now (app grouping and state masks).

        Optional warm-up for full figure/table suites; each build is
        timed under the ``index.build`` stage. Users whose index is
        already grouped are skipped.
        """
        for uid in self._order:
            index = self.index_for(uid)
            if not index.is_grouped:
                index.build()
        return self

    def _trace(self, user_id: int) -> UserTrace:
        trace = self._traces.get(user_id)
        if trace is None:
            raise AnalysisError(f"unknown user id {user_id}")
        return trace

    def _attribute(self, trace: UserTrace) -> AttributionResult:
        """Attribute one user's device timeline and memoize the result."""
        # Fault site for chaos tests: an armed plan raises here, before
        # anything is memoized.
        faults.fire("attribute.task")
        result = attribution.attribute_energy(
            self.model, trace.packets, (trace.start, trace.end), self.policy
        )
        self._results[trace.user_id] = result
        self.metrics.count("attribution.users")
        self.metrics.count("attribution.packets", len(trace.packets))
        return result

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def user_result(self, user_id: int) -> AttributionResult:
        """The attribution for one user (computed on first access)."""
        result = self._results.get(user_id)
        if result is not None:
            return result
        trace = self._trace(user_id)
        with self.metrics.stage("attribute"):
            return self._attribute(trace)

    @property
    def user_ids(self) -> List[int]:
        """User ids in dataset order."""
        return [t.user_id for t in self.dataset]

    @property
    def provenance(self) -> ReadoutProvenance:
        """The (fingerprint, model, policy) triple keying this study.

        The results store (:mod:`repro.store`) keys rendered artefacts
        by it. Reading it never triggers attribution — the
        fingerprint digests packets only — so a lazy engine can be
        keyed (and answered from the store) without computing.
        """
        return ReadoutProvenance(
            fingerprint=self.dataset.fingerprint(),
            model=repr(self.model),
            policy=self.policy.value,
        )

    @property
    def registry(self) -> AppRegistry:
        """The dataset's app registry."""
        return self.dataset.registry

    def duration_days(self, user_id: int) -> float:
        """One user's observation window length in days."""
        return self._trace(user_id).duration_days

    def user_totals(self, user_id: int) -> UserTotalsView:
        """One user's totals-tier view (memoized).

        The same keyed dicts a totals-only readout carries: the whole
        trace folded as one :class:`~repro.keyed.UserTotals` run, so
        analyses that fold over these perform identical float additions
        on every readout.
        """
        view = self._user_totals.get(user_id)
        if view is not None:
            return view
        result = self.user_result(user_id)
        packets = self._traces[user_id].packets
        totals = UserTotals.whole_run(
            result.app_totals,
            packets.apps,
            result.per_packet,
            packets.states,
            packets.sizes,
        )
        view = UserTotalsView(user_id, *totals.as_dicts(), result.idle_energy)
        self._user_totals[user_id] = view
        return view

    def background_cadence(
        self,
        app_id: int,
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> AppCadence:
        """One app's background flow/burst cadence across all users.

        Computed from the packet arrays, so — unlike a totals-only
        readout's stored cadence — any ``flow_gap``/``burst_gap`` works.
        Users without background traffic for the app are absent, the
        batch inclusion rule Table 1 has always used.
        """
        per_user = []
        for uid in self._order:
            index = self.index_for(uid)
            if len(index.app_background_indices(app_id)) == 0:
                continue
            subset = index.app_background_packets(app_id)
            timestamps = subset.timestamps
            per_user.append(
                UserCadence(
                    uid,
                    count_flows(subset, gap_timeout=flow_gap),
                    len(burst_starts(timestamps, burst_gap)),
                    inter_burst_intervals(timestamps, burst_gap),
                )
            )
        return AppCadence(app_id, flow_gap, burst_gap, tuple(per_user))

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    @fold_once
    def bytes_by_app(self) -> Dict[int, int]:
        """Traffic bytes per app id, summed over users.

        Read from the packet arrays, so a lazy engine answers it
        without attributing anyone; the exact integers the base
        class's fold of :meth:`user_totals` would give.
        """
        return merge_keyed_totals(
            (
                trace.index(metrics=self.metrics).bytes_by_app()
                for trace in self.dataset
            ),
            zero=0,
        )

    # ------------------------------------------------------------------
    # Per-user / per-day reductions
    # ------------------------------------------------------------------
    def user_app_energy(self, user_id: int, app_id: int) -> float:
        """Joules attributed to one app on one device."""
        return self.user_result(user_id).energy_by_app().get(app_id, 0.0)

    def daily_energy(
        self, user_id: int, app_id: Optional[int] = None
    ) -> np.ndarray:
        """Per-day attributed joules for one user (optionally one app).

        Day ``d`` covers ``[d*86400, (d+1)*86400)`` seconds of study
        time; the returned array spans the full trace duration.
        """
        trace = self._trace(user_id)
        result = self.user_result(user_id)
        n_days = int(np.ceil((trace.end - trace.start) / DAY))
        ts = trace.packets.timestamps
        energy = result.per_packet
        if app_id is not None:
            idx = self.index_for(user_id).app_indices(app_id)
            ts = ts[idx]
            energy = energy[idx]
        days = ((ts - trace.start) // DAY).astype(np.int64)
        return np.bincount(days, weights=energy, minlength=n_days)[:n_days]

    def app_days_with_traffic(
        self, user_id: int, app_id: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(has-foreground-traffic, has-background-traffic) day masks.

        Foreground means packets labelled FOREGROUND or VISIBLE;
        background the other three states (the paper's grouping). The
        kill policy's classification
        (:func:`repro.policy.kill.app_traffic_days`).
        """
        from repro.policy.kill import app_traffic_days

        trace = self._trace(user_id)
        return app_traffic_days(
            self.index_for(user_id), trace.start, trace.end, app_id
        )

    def users_with_app(self, app_id: int) -> List[int]:
        """Users whose trace contains at least one packet of the app."""
        return [
            trace.user_id
            for trace in self.dataset
            if self.index_for(trace.user_id).has_app(app_id)
        ]
