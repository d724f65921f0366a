"""Drop-style counterfactual policies: doze, frequency caps, push.

Three families from the optimization-taxonomy literature that suppress
background traffic outright (as opposed to delaying it — see
:mod:`repro.policy.shifts`):

* :class:`DozePolicy` — Android M's announced behaviour: background
  traffic stops once the screen has been off long enough.
* :class:`FrequencyCapPolicy` — Windows-Phone-style scheduled agents:
  background tasks may run at most once per ``min_period``.
* :class:`PushConversionPolicy` — convert polling to push: background
  bursts that move almost no payload are empty polls a push channel
  would have eliminated.
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
    drop_packets,
)
from repro.policy.engine import TotalSavings, evaluate_policy

#: Packets of a surviving burst within this window are kept too.
BURST_WINDOW_S = 30.0

#: Silence that separates two background bursts of one app.
DEFAULT_BURST_GAP_S = 60.0


@dataclass(frozen=True)
class DozePolicy(PolicyParams):
    """Suppress background traffic after the screen has been off a while.

    Whitelisted apps (the paper suggests widgets may legitimately need
    exemptions) are untouched. Models Android M's announced behaviour.
    """

    name: ClassVar[str] = "doze"

    screen_off_threshold: float = 3600.0
    whitelist: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.screen_off_threshold <= 0:
            raise AnalysisError(
                "screen_off_threshold must be positive: "
                f"{self.screen_off_threshold}"
            )

    def transform(self, packets, context: PolicyContext) -> PolicyTransform:
        ts = packets.timestamps
        # Time since the screen last turned off (0 while on).
        screen = context.index.events.screen
        ev_times = screen["timestamp"]
        idx = np.searchsorted(ev_times, ts, side="right") - 1
        off_since = np.where(
            (idx >= 0) & (screen["on"][np.clip(idx, 0, None)] == 0),
            ts - ev_times[np.clip(idx, 0, None)],
            0.0,
        )
        is_bg = context.index.background_mask
        drop = is_bg & (off_since > self.screen_off_threshold)
        exempt = set(context.resolve_apps(self.whitelist) or ())
        if exempt:
            drop &= ~np.isin(packets.apps, np.array(sorted(exempt)))
        return drop_packets(packets, drop)


@dataclass(frozen=True)
class FrequencyCapPolicy(PolicyParams):
    """Cap background task frequency (Windows Phone's scheduled agents).

    Keeps, per app and device, only the background bursts that start at
    least ``min_period`` after the previous surviving burst; later
    packets of a surviving burst (within 30 s) are kept too.
    """

    name: ClassVar[str] = "frequency-cap"

    min_period: float = 1800.0
    apps: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.min_period <= 0:
            raise AnalysisError(
                f"min_period must be positive: {self.min_period}"
            )

    def transform(self, packets, context: PolicyContext) -> PolicyTransform:
        index = context.index
        keep = np.ones(len(packets), dtype=bool)
        ts = packets.timestamps
        for app_id in context.candidate_apps(self.apps):
            idx = index.app_background_indices(app_id)
            if len(idx) == 0:
                continue
            app_ts = ts[idx]
            last_kept = -np.inf
            for i, t in enumerate(app_ts):
                if t - last_kept >= self.min_period:
                    last_kept = t  # a new permitted task window opens
                elif t - last_kept > BURST_WINDOW_S:
                    keep[idx[i]] = False  # outside the task's burst
        return drop_packets(packets, ~keep)


@dataclass(frozen=True)
class PushConversionPolicy(PolicyParams):
    """Convert background polling to server push.

    Background bursts whose total payload is at most
    ``min_payload_bytes`` are empty polls — the request/response
    carried nothing an app couldn't have been told by a push
    notification, so a push channel removes the whole burst (and its
    radio tail). Bursts that actually move data are kept: push does
    not eliminate the transfer, only the asking.
    """

    name: ClassVar[str] = "push"

    min_payload_bytes: int = 512
    burst_gap: float = DEFAULT_BURST_GAP_S
    apps: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.min_payload_bytes < 0:
            raise AnalysisError(
                "min_payload_bytes must be >= 0: "
                f"{self.min_payload_bytes}"
            )
        if self.burst_gap <= 0:
            raise AnalysisError(
                f"burst_gap must be positive: {self.burst_gap}"
            )

    def transform(self, packets, context: PolicyContext) -> PolicyTransform:
        index = context.index
        ts = packets.timestamps
        sizes = packets.sizes.astype(np.int64)
        drop = np.zeros(len(packets), dtype=bool)
        for app_id in context.candidate_apps(self.apps):
            idx = index.app_background_indices(app_id)
            if len(idx) == 0:
                continue
            app_ts = ts[idx]
            starts = np.flatnonzero(
                np.concatenate(
                    ([True], np.diff(app_ts) > self.burst_gap)
                )
            )
            bounds = np.append(starts, len(app_ts))
            burst_bytes = np.add.reduceat(sizes[idx], starts)
            for b in np.flatnonzero(burst_bytes <= self.min_payload_bytes):
                drop[idx[bounds[b] : bounds[b + 1]]] = True
        return drop_packets(packets, drop)


def doze_savings(
    study,
    screen_off_threshold: float = 3600.0,
    whitelist=(),
) -> TotalSavings:
    """Doze-like extension: suppress all background traffic once the
    screen has been off for ``screen_off_threshold`` seconds."""
    policy = DozePolicy(
        screen_off_threshold=screen_off_threshold,
        whitelist=tuple(whitelist),
    )
    return evaluate_policy(study, policy).savings


def frequency_cap_savings(study, min_period: float = 1800.0) -> TotalSavings:
    """Windows-Phone-style policy: cap background task frequency."""
    return evaluate_policy(
        study, FrequencyCapPolicy(min_period=min_period)
    ).savings
