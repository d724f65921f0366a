"""§5's kill policy on the :class:`CounterfactualPolicy` protocol.

The paper proposes that the OS kill apps that have stayed in the
background for several consecutive days without foreground use, and
simulates a 3-day threshold on the traces (Table 2). The day
classification, idle counter and drop-mask construction here are the
(formerly ``core.whatif``) reference implementations; the Table-2
reporting entry points are kept for compatibility and now drive the
shared transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.policy.base import (
    PolicyContext,
    PolicyParams,
    PolicyTransform,
    drop_packets,
    stacked_rows,
)
from repro.policy.engine import TotalSavings, evaluate_policy
from repro.radio.attribution import attribute_energy
from repro.trace.index import TraceIndex
from repro.units import DAY

#: The paper's proposed idle threshold, days.
DEFAULT_IDLE_DAYS = 3


def max_bounded_run(fg: np.ndarray, bg_only: np.ndarray) -> int:
    """Longest run of bg-only days with foreground days on both sides.

    Days with neither foreground nor background traffic break a run —
    the app was not producing anything to save.
    """
    best = 0
    run = 0
    seen_fg = False
    for day in range(len(fg)):
        if fg[day]:
            if seen_fg:
                best = max(best, run)
            run = 0
            seen_fg = True
        elif bg_only[day] and seen_fg:
            run += 1
        else:
            run = 0
    return best


def killed_days(fg: np.ndarray, bg: np.ndarray, idle_days: int) -> np.ndarray:
    """Days on which the policy would have the app dead.

    The idle counter counts consecutive days without foreground use
    while the app is emitting background traffic; once it reaches
    ``idle_days`` the app is killed until the next foreground day.
    Until the kill, the counter is the number of background days since
    the last foreground day; after it, that number only grows — so a
    day is killed exactly when it is not a foreground day and that
    number has reached ``idle_days``.

    ``fg``/``bg`` are day masks along the last axis: one app's days, or
    an app x day matrix.
    """
    fg = np.asarray(fg, dtype=bool)
    counted = np.cumsum(np.asarray(bg, dtype=bool) & ~fg, axis=-1)
    since_fg = counted - np.maximum.accumulate(
        np.where(fg, counted, 0), axis=-1
    )
    return ~fg & (since_fg >= idle_days)


def _traffic_day_masks(
    index: TraceIndex, start: float, end: float, app_ids
) -> Tuple[np.ndarray, np.ndarray]:
    """(has-foreground-traffic, has-background-traffic) app x day masks.

    Row ``k`` classifies ``app_ids[k]``'s days; day ``d`` covers
    ``[start + d*DAY, start + (d+1)*DAY)``, and a packet at ``end``
    counts in the last day. Pure over the trace index and window.
    """
    n_days = int(np.ceil((end - start) / DAY))
    ts = index.packets.timestamps
    masks = []
    for group in (index.app_foreground_indices, index.app_background_indices):
        rows, bounds = stacked_rows(group(a) for a in app_ids)
        days = ((ts[rows] - start) // DAY).astype(np.int64)
        mask = np.zeros((len(app_ids), n_days), dtype=bool)
        mask[_row_apps(bounds), np.minimum(days, n_days - 1)] = True
        masks.append(mask)
    return masks[0], masks[1]


def app_traffic_days(
    index: TraceIndex, start: float, end: float, app_id: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(has-foreground-traffic, has-background-traffic) day masks of one
    app, as :func:`_traffic_day_masks` classifies its days (and
    ``StudyEnergy.app_days_with_traffic`` returns them)."""
    fg, bg = _traffic_day_masks(index, start, end, (app_id,))
    return fg[0], bg[0]


def killed_drop_mask(
    index: TraceIndex, app_id: int, killed: np.ndarray, start: float
) -> np.ndarray:
    """Boolean drop mask over the trace's original packets: the app's
    background packets on killed days."""
    return _killed_rows_mask(index, (app_id,), killed[np.newaxis], start)


def _killed_rows_mask(
    index: TraceIndex, app_ids, killed: np.ndarray, start: float
) -> np.ndarray:
    """The drop mask for an app x day ``killed`` matrix: each app's
    background packets on its killed days (days clipped to the window)."""
    rows, bounds = stacked_rows(index.app_background_indices(a) for a in app_ids)
    days = ((index.packets.timestamps[rows] - start) // DAY).astype(np.int64)
    days = np.clip(days, 0, killed.shape[1] - 1)
    drop = np.zeros(len(index.packets), dtype=bool)
    drop[rows[killed[_row_apps(bounds), days]]] = True
    return drop


def _row_apps(bounds: np.ndarray) -> np.ndarray:
    """For stacked rows: the position of each row's app in the app list."""
    counts = np.diff(bounds)
    return np.repeat(np.arange(len(counts)), counts)


@dataclass(frozen=True)
class KillIdlePolicy(PolicyParams):
    """Kill apps idle in the background for ``idle_days`` straight days.

    ``apps`` restricts the policy to named packages (``None`` = every
    app on the device, the paper's OS-wide reading).
    """

    name: ClassVar[str] = "kill"

    idle_days: int = DEFAULT_IDLE_DAYS
    apps: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.idle_days < 1:
            raise AnalysisError(f"idle_days must be >= 1: {self.idle_days}")

    def transform(self, packets, context: PolicyContext) -> PolicyTransform:
        app_ids = context.candidate_apps(self.apps)
        fg, bg = _traffic_day_masks(
            context.index, context.start, context.end, app_ids
        )
        killed = killed_days(fg, bg, self.idle_days)
        return drop_packets(
            packets,
            _killed_rows_mask(context.index, app_ids, killed, context.start),
        )


@dataclass(frozen=True)
class UserKillOutcome:
    """Per-user effect of the kill policy on one app."""

    user_id: int
    app_energy_before: float
    app_energy_after: float
    killed_days: int
    bg_only_days: int
    traffic_days: int
    max_consecutive_bg_only: int

    @property
    def reduction(self) -> float:
        """Fractional app-energy reduction for this user."""
        if self.app_energy_before <= 0:
            return 0.0
        return 1.0 - self.app_energy_after / self.app_energy_before


@dataclass(frozen=True)
class KillPolicyResult:
    """Table 2 row: one app under the kill-after-N-idle-days policy."""

    app: str
    idle_days: int
    per_user: Tuple[UserKillOutcome, ...]

    @property
    def pct_background_only_days(self) -> float:
        """Row A: % of traffic days with only background traffic."""
        bg = sum(u.bg_only_days for u in self.per_user)
        days = sum(u.traffic_days for u in self.per_user)
        return 100.0 * bg / days if days else 0.0

    @property
    def max_consecutive_background_days(self) -> int:
        """Row B: longest fg-bounded run of background-only days."""
        if not self.per_user:
            return 0
        return max(u.max_consecutive_bg_only for u in self.per_user)

    @property
    def avg_energy_reduction_pct(self) -> float:
        """Row C: per-user average % reduction of the app's energy."""
        if not self.per_user:
            return 0.0
        return 100.0 * float(np.mean([u.reduction for u in self.per_user]))


def kill_policy_savings(
    study,
    app: str,
    idle_days: int = DEFAULT_IDLE_DAYS,
) -> KillPolicyResult:
    """Table 2: simulate killing ``app`` after ``idle_days`` idle days.

    The modified trace is re-attributed through the full radio model so
    that removed tails and promotions are credited exactly.
    """
    from repro.core.readout import require_packet_detail

    require_packet_detail(study, "kill_policy_savings")
    policy = KillIdlePolicy(idle_days=idle_days, apps=(app,))
    app_id = study.dataset.registry.id_of(app)
    outcomes: List[UserKillOutcome] = []
    for trace in study.dataset:
        before = study.user_app_energy(trace.user_id, app_id)
        if before <= 0:
            continue
        index = study.index_for(trace.user_id)
        fg, bg = app_traffic_days(index, trace.start, trace.end, app_id)
        bg_only = bg & ~fg
        killed = killed_days(fg, bg, idle_days)
        if killed.any():
            context = PolicyContext(
                index=index,
                start=trace.start,
                end=trace.end,
                id_of=study.dataset.registry.id_of,
            )
            out = policy.transform(trace.packets, context)
            result = attribute_energy(
                study.model,
                out.packets,
                window=(trace.start, trace.end),
                policy=study.policy,
            )
            after = result.energy_by_app().get(app_id, 0.0)
        else:
            after = before
        outcomes.append(
            UserKillOutcome(
                user_id=trace.user_id,
                app_energy_before=before,
                app_energy_after=after,
                killed_days=int(killed.sum()),
                bg_only_days=int(bg_only.sum()),
                traffic_days=int((fg | bg).sum()),
                max_consecutive_bg_only=max_bounded_run(fg, bg_only),
            )
        )
    if not outcomes:
        raise AnalysisError(f"no user has energy attributed to {app!r}")
    return KillPolicyResult(app=app, idle_days=idle_days, per_user=tuple(outcomes))


def total_savings(
    study,
    idle_days: int = DEFAULT_IDLE_DAYS,
    apps=None,
) -> TotalSavings:
    """Apply the kill policy to every app (or ``apps``) simultaneously
    and measure total attributed-energy savings.

    The paper finds this is <1% on average — each individual app is a
    small share of a device's total — even though per-app savings
    (Table 2 row C) can exceed 50%.
    """
    policy = KillIdlePolicy(
        idle_days=idle_days, apps=None if apps is None else tuple(apps)
    )
    return evaluate_policy(study, policy).savings


def savings_on_affected_days(
    study, app: str, idle_days: int = DEFAULT_IDLE_DAYS
) -> float:
    """% reduction of users' *total* energy on days the kill is active.

    The paper's strongest single number: for users running Weibo,
    disabling it after 3 idle days cut their total network energy on
    those days by 16%.
    """
    from repro.core.readout import require_packet_detail

    require_packet_detail(study, "savings_on_affected_days")
    policy = KillIdlePolicy(idle_days=idle_days, apps=(app,))
    app_id = study.dataset.registry.id_of(app)
    affected_before = 0.0
    affected_after = 0.0
    for trace in study.dataset:
        index = study.index_for(trace.user_id)
        fg, bg = app_traffic_days(index, trace.start, trace.end, app_id)
        killed = killed_days(fg, bg, idle_days)
        if not killed.any():
            continue
        daily_before = study.daily_energy(trace.user_id)
        context = PolicyContext(
            index=index,
            start=trace.start,
            end=trace.end,
            id_of=study.dataset.registry.id_of,
        )
        kept = policy.transform(trace.packets, context).packets
        result = attribute_energy(
            study.model, kept, window=(trace.start, trace.end), policy=study.policy
        )
        days = ((kept.timestamps - trace.start) // DAY).astype(np.int64)
        daily_after = np.bincount(
            days, weights=result.per_packet, minlength=len(daily_before)
        )[: len(daily_before)]
        affected_before += float(daily_before[killed].sum())
        affected_after += float(daily_after[killed].sum())
    if affected_before <= 0:
        raise AnalysisError(f"the policy never activates for {app!r}")
    return 100.0 * (1.0 - affected_after / affected_before)
