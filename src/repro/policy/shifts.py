"""Shift-style counterfactual policies: coalescing, batching, deadlines.

These delay background traffic instead of dropping it — the cost is
freshness, not data. Three schedulers:

* :class:`OsCoalescingPolicy` — §6's iOS discussion: the OS delays all
  apps' background transfers to one device-wide grid, so they share
  promotions and tails.
* :class:`AppBatchingPolicy` — Guner et al.'s application-layer tuning:
  each app batches its *own* background transfers to one burst every
  ``period`` seconds, anchored at its first transfer (no cross-app
  alignment — the saving the app can get without OS help).
* :class:`DelayTolerantPolicy` — delay-tolerant scheduling from the
  taxonomy SLR: a background burst may wait up to ``deadline`` seconds
  to piggyback on the device's next foreground activity (the radio is
  up anyway); bursts with no such opportunity run on time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.policy.base import (
    PolicyContext,
    PolicyParams,
    PolicyTransform,
    unchanged,
)
from repro.policy.drops import DEFAULT_BURST_GAP_S, burst_bounds
from repro.policy.engine import evaluate_policy


@dataclass(frozen=True)
class OsCoalescingPolicy(PolicyParams):
    """OS-managed background scheduling (§6's iOS model).

    Every background-state packet is delayed to the next multiple of
    ``period`` from the trace start, so all apps' background transfers
    on a device fire together and share promotions and tails.
    """

    name: ClassVar[str] = "coalesce"

    period: float = 1800.0
    apps: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise AnalysisError(f"period must be positive: {self.period}")

    def transform(self, packets, context: PolicyContext) -> PolicyTransform:
        is_bg = context.index.background_mask
        if self.apps is not None:
            app_ids = context.resolve_apps(self.apps)
            is_bg = is_bg & np.isin(packets.apps, np.array(sorted(app_ids)))
        if not is_bg.any():
            return unchanged(packets)
        ts = packets.timestamps
        rel = ts[is_bg] - context.start
        shifted = np.ceil(rel / self.period) * self.period + context.start
        # Keep everything inside the observation window.
        shifted = np.minimum(shifted, context.end - 1e-6)
        delay = float((shifted - ts[is_bg]).sum())
        moved = int(is_bg.sum())
        return PolicyTransform(
            packets=packets.retimed(is_bg, shifted),
            moved_packets=moved,
            delay_seconds=delay,
        )


@dataclass(frozen=True)
class AppBatchingPolicy(PolicyParams):
    """Application-layer batching: one background burst per period.

    Each selected app's background packets are delayed to the next
    multiple of ``period`` after that app's *own* first background
    transfer — per-app grids, so nothing aligns across apps. The gap
    to :class:`OsCoalescingPolicy` on the same study is exactly the
    value of OS-level coordination.
    """

    name: ClassVar[str] = "batching"

    period: float = 1800.0
    apps: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise AnalysisError(f"period must be positive: {self.period}")

    def transform(self, packets, context: PolicyContext) -> PolicyTransform:
        rows, times = [], []
        delay = 0.0
        for app_id in context.candidate_apps(self.apps):
            idx = context.index.app_background_indices(app_id)
            if len(idx) == 0:
                continue
            app_ts = packets.timestamps[idx]
            anchor = app_ts[0]
            shifted = anchor + np.ceil((app_ts - anchor) / self.period) * self.period
            shifted = np.minimum(shifted, context.end - 1e-6)
            delay += float((shifted - app_ts).sum())
            rows.append(idx)
            times.append(shifted)
        if not rows:
            return unchanged(packets)
        rows = np.concatenate(rows)
        return PolicyTransform(
            packets=packets.retimed(rows, np.concatenate(times)),
            moved_packets=len(rows),
            delay_seconds=delay,
        )


@dataclass(frozen=True)
class DelayTolerantPolicy(PolicyParams):
    """Deadline scheduling: piggyback on the next foreground activity.

    A background burst may wait up to ``deadline`` seconds for the
    device's next foreground packet; if one arrives in time, the whole
    burst moves to it (the radio is already up — the burst rides an
    existing promotion and tail). Bursts whose deadline passes first
    run at their original time: the policy never drops traffic and
    never delays anything past its deadline.
    """

    name: ClassVar[str] = "deadline"

    deadline: float = 600.0
    burst_gap: float = DEFAULT_BURST_GAP_S
    apps: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.deadline < 0:
            raise AnalysisError(f"deadline must be >= 0: {self.deadline}")
        if self.burst_gap <= 0:
            raise AnalysisError(
                f"burst_gap must be positive: {self.burst_gap}"
            )

    def transform(self, packets, context: PolicyContext) -> PolicyTransform:
        ts = packets.timestamps
        fg_times = ts[context.index.foreground_mask]
        if len(fg_times) == 0 or self.deadline == 0:
            return unchanged(packets)
        rows, apps = context.background_rows(self.apps)
        bursts = burst_bounds(ts[rows], apps, self.burst_gap)
        first = ts[rows[bursts[:-1]]]
        pos = np.searchsorted(fg_times, first, side="left")
        delta = fg_times[np.minimum(pos, len(fg_times) - 1)] - first
        move = (pos < len(fg_times)) & (0.0 < delta) & (delta <= self.deadline)
        if not move.any():
            return unchanged(packets)
        lengths = np.diff(bursts)[move]
        moved = rows[np.repeat(move, np.diff(bursts))]
        before = ts[moved]
        shifted = np.minimum(
            before + np.repeat(delta[move], lengths), context.end - 1e-6
        )
        # A running total of per-burst sums, in burst order within each
        # app and candidate order across apps.
        delay = np.cumsum(_burst_sums(shifted - before, lengths))[-1]
        return PolicyTransform(
            packets=packets.retimed(moved, shifted),
            moved_packets=len(moved),
            delay_seconds=float(delay),
        )


def _burst_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``values`` split into consecutive bursts of ``lengths``: each
    burst's ``ndarray.sum()``, bit for bit.

    Bursts of one length are summed as the rows of one C-contiguous
    matrix, which numpy reduces in the same (pairwise) order as each
    burst alone. ``np.add.reduceat`` does not: it computes
    ``a0 + (a1 + a2 + ...)``.
    """
    offsets = np.cumsum(lengths) - lengths
    sums = np.empty(len(lengths))
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    for group in np.split(order, cuts):
        span = np.arange(lengths[group[0]])
        sums[group] = values[offsets[group, None] + span].sum(axis=1)
    return sums


@dataclass(frozen=True)
class CoalescingResult:
    """Effect of OS-level background batching (§6's iOS discussion)."""

    period: float
    total_before: float
    total_after: float
    moved_packets: int
    mean_delay: float

    @property
    def savings_pct(self) -> float:
        """% of attributed energy removed by coalescing."""
        if self.total_before <= 0:
            return 0.0
        return 100.0 * (1.0 - self.total_after / self.total_before)


def os_coalescing_savings(study, period: float = 1800.0) -> CoalescingResult:
    """Simulate OS-managed background scheduling.

    Unlike the kill policy, no traffic is dropped — the cost is
    freshness (mean added delay ~ period/2), which is also reported.
    """
    result = evaluate_policy(study, OsCoalescingPolicy(period=period))
    return CoalescingResult(
        period=period,
        total_before=result.savings.total_before,
        total_after=result.savings.total_after,
        moved_packets=result.moved_packets,
        mean_delay=result.mean_delay,
    )


def batching_savings(study, app: str, target_period: float) -> float:
    """Estimated % energy saving from batching an app's background
    bursts to one transfer every ``target_period`` seconds.

    A first-order model of §6's recommendation: each eliminated burst
    saves roughly one radio tail plus one promotion (the transfer bytes
    still have to move). Returns the saving as % of the app's current
    energy. For the honest re-attributed number, evaluate
    :class:`AppBatchingPolicy` through the engine instead.
    """
    from repro.core.periodicity import burst_starts
    from repro.core.readout import require_packet_detail
    from repro.units import DAY

    require_packet_detail(study, "batching_savings")
    if target_period <= 0:
        raise AnalysisError(f"target_period must be positive: {target_period}")
    app_id = study.dataset.registry.id_of(app)
    tail_cost = study.model.full_tail_energy + study.model.promotion_energy
    app_energy = 0.0
    saved = 0.0
    for trace in study.dataset:
        idx = study.index_for(trace.user_id).app_background_indices(app_id)
        if len(idx) == 0:
            continue
        result = study.user_result(trace.user_id)
        app_energy += float(result.per_packet[idx].sum())
        ts = trace.packets.timestamps[idx]
        starts = burst_starts(ts)
        if len(starts) < 2:
            continue
        # Batch within each day: background activity is often
        # concentrated (lingering episodes, waking hours), so comparing
        # against a uniform whole-study schedule would under-count.
        days = ((starts - trace.start) // DAY).astype(np.int64)
        for day in np.unique(days):
            day_starts = starts[days == day]
            if len(day_starts) < 2:
                continue
            span = float(day_starts[-1] - day_starts[0])
            batched = max(1, int(np.ceil(span / target_period)) + 1)
            eliminated = max(0, len(day_starts) - batched)
            saved += eliminated * tail_cost
    if app_energy <= 0:
        raise AnalysisError(f"no background energy attributed to {app!r}")
    return 100.0 * min(saved / app_energy, 1.0)
