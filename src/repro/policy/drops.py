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
    unchanged,
)
from repro.policy.engine import TotalSavings, evaluate_policy

#: Packets of a surviving burst within this window are kept too.
BURST_WINDOW_S = 30.0

#: Silence that separates two background bursts of one app.
DEFAULT_BURST_GAP_S = 60.0


def burst_bounds(ts: np.ndarray, app_bounds: np.ndarray, gap: float) -> np.ndarray:
    """Burst offsets over stacked background rows (see ``stacked_rows``).

    A burst starts at each app's first row and after every silence
    longer than ``gap``; burst ``b`` is ``ts[out[b]:out[b + 1]]``.
    """
    is_start = np.zeros(len(ts), dtype=bool)
    is_start[1:] = np.diff(ts) > gap
    firsts = app_bounds[:-1]
    is_start[firsts[firsts < len(ts)]] = True
    return np.append(np.flatnonzero(is_start), len(ts))


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
        if len(screen) == 0:
            # No screen events: the screen is never known to be off.
            return unchanged(packets)
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
        if not self.min_period > 0:  # NaN too: no window could open
            raise AnalysisError(
                f"min_period must be positive: {self.min_period}"
            )

    def transform(self, packets, context: PolicyContext) -> PolicyTransform:
        rows, apps = context.background_rows(self.apps)
        if len(rows) == 0:
            return unchanged(packets)
        ts = packets.timestamps[rows]
        # Each app's first packet opens a window, and each window's
        # first packet at least min_period later opens the next: one
        # step per permitted window, not per packet.
        step = _window_successors(ts, apps, self.min_period)
        is_open = np.zeros(len(ts), dtype=bool)
        i = 0
        while i < len(ts):
            is_open[i] = True
            i = step.item(i)
        opener = np.maximum.accumulate(
            np.where(is_open, np.arange(len(ts)), 0)
        )
        drop = np.zeros(len(packets), dtype=bool)
        drop[rows[ts - ts[opener] > BURST_WINDOW_S]] = True  # outside the burst
        return drop_packets(packets, drop)


def _window_successors(
    ts: np.ndarray, app_bounds: np.ndarray, min_period: float
) -> np.ndarray:
    """Per row ``i``: the first later row of its app with
    ``ts[j] - ts[i] >= min_period``, else the app's end offset."""
    out = np.empty(len(ts), dtype=np.int64)
    for lo, hi in zip(app_bounds[:-1].tolist(), app_bounds[1:].tolist()):
        app_ts = ts[lo:hi]
        out[lo:hi] = np.searchsorted(app_ts, app_ts + min_period) + lo
    # ``ts + min_period`` rounds, so the search can land a row off the
    # exact subtraction test. The test is monotone in ts: step each
    # miss towards the first row that passes it.
    i = np.arange(len(ts))
    ends = np.repeat(app_bounds[1:], np.diff(app_bounds))
    back = i[out - 1 > i]
    back = back[ts[out[back] - 1] - ts[back] >= min_period]
    while len(back):
        out[back] -= 1
        back = back[out[back] - 1 > back]
        back = back[ts[out[back] - 1] - ts[back] >= min_period]
    ahead = i[out < ends]
    ahead = ahead[~(ts[out[ahead]] - ts[ahead] >= min_period)]
    while len(ahead):
        out[ahead] += 1
        ahead = ahead[out[ahead] < ends[ahead]]
        ahead = ahead[~(ts[out[ahead]] - ts[ahead] >= min_period)]
    return out


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
        rows, apps = context.background_rows(self.apps)
        if len(rows) == 0:
            return unchanged(packets)
        bursts = burst_bounds(packets.timestamps[rows], apps, self.burst_gap)
        burst_bytes = np.add.reduceat(
            packets.sizes[rows].astype(np.int64), bursts[:-1]
        )
        empty = np.repeat(
            burst_bytes <= self.min_payload_bytes, np.diff(bursts)
        )
        drop = np.zeros(len(packets), dtype=bool)
        drop[rows[empty]] = True
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
