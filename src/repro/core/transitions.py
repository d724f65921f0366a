"""Foreground -> background transition analyses (§4.1, Figs 4-6).

The section's new finding is that foreground-initiated traffic often
fails to stop when an app is backgrounded. Three views quantify it:

* :func:`trace_timeline` -- one transition's packet timeline (Fig 4);
* :func:`persistence_durations` -- per-transition duration that traffic
  keeps flowing afterwards (Fig 5's CDF; heavy-tailed, sometimes >1 day);
* :func:`bytes_since_foreground` -- total background bytes as a
  function of time since leaving the foreground (Fig 6: a heavy first
  minute, periodic spikes at 5/10 minutes, and a long tail);
* :func:`first_minute_fractions` -- the per-app share of background
  bytes landing within 60 s of backgrounding, behind the "84% of apps"
  headline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.readout import require_packet_detail, sequential_sum
from repro.errors import AnalysisError
from repro.trace.dataset import Dataset
from repro.trace.intervals import BackgroundTransition
from repro.trace.trace import UserTrace
from repro.units import MINUTE

#: Default silence that ends a "traffic still flowing" episode (Fig 5).
DEFAULT_SILENCE_GAP = 10 * MINUTE


@dataclass(frozen=True)
class PersistenceSample:
    """One background transition and how long traffic persisted after it."""

    user_id: int
    app: str
    start: float
    duration: float
    bytes: int


@dataclass(frozen=True)
class TransitionStats:
    """Summary of one app's transition behaviour."""

    app: str
    transitions: int
    median_persistence: float
    p90_persistence: float
    max_persistence: float

    @classmethod
    def from_samples(
        cls, app: str, samples: List[PersistenceSample]
    ) -> "TransitionStats":
        """Aggregate one app's persistence samples."""
        durations = np.array([s.duration for s in samples]) if samples else np.zeros(1)
        return cls(
            app=app,
            transitions=len(samples),
            median_persistence=float(np.median(durations)),
            p90_persistence=float(np.percentile(durations, 90)),
            max_persistence=float(durations.max()),
        )


def _episode_spans(
    trace: UserTrace, app_id: int
) -> Tuple[BackgroundTransition, ...]:
    return trace.index().background_episodes(app_id)


def _episode_bounds(trace: UserTrace, app_id: int) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the app's background episodes, as arrays."""
    episodes = _episode_spans(trace, app_id)
    starts = np.array([episode.start for episode in episodes], dtype=np.float64)
    ends = np.array([episode.end for episode in episodes], dtype=np.float64)
    return starts, ends


def _app_packet_times(trace: UserTrace, app_id: int) -> Tuple[np.ndarray, np.ndarray]:
    rows = trace.index().app_indices(app_id)
    packets = trace.packets
    return packets.timestamps[rows], packets.sizes[rows].astype(np.int64)


def _episode_rows(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``range(lo[i], hi[i])`` concatenated (empty where
    ``hi[i] <= lo[i]``), and the episode ``i`` of each row."""
    lengths = np.maximum(hi - lo, 0)
    episodes = np.repeat(np.arange(len(lengths)), lengths)
    rows = np.arange(len(episodes)) + np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
    return rows, episodes


def persistence_durations(
    dataset: Dataset,
    app: Optional[str] = None,
    silence_gap: float = DEFAULT_SILENCE_GAP,
    include_silent: bool = True,
) -> List[PersistenceSample]:
    """Fig 5: how long traffic continues after each backgrounding.

    For every foreground -> background transition, the persistence
    duration is the time from the transition to the last packet of the
    episode's leading *continuous* traffic run — the run ends at the
    first silence longer than ``silence_gap``. Transitions with no
    subsequent traffic yield zero-duration samples unless
    ``include_silent`` is false.
    """
    require_packet_detail(dataset, "persistence_durations")
    registry = dataset.registry
    if app is not None:
        app_ids = [registry.id_of(app)]
    else:
        app_ids = None
    samples: List[PersistenceSample] = []
    for trace in dataset:
        candidates = app_ids if app_ids is not None else trace.app_ids()
        for app_id in candidates:
            ts, sizes = _app_packet_times(trace, app_id)
            if len(ts) == 0 and not include_silent:
                continue
            name = registry.name_of(app_id)
            for episode in _episode_spans(trace, app_id):
                lo = np.searchsorted(ts, episode.start, side="left")
                hi = np.searchsorted(ts, episode.end, side="left")
                ep_ts = ts[lo:hi]
                if len(ep_ts) == 0:
                    if include_silent:
                        samples.append(
                            PersistenceSample(trace.user_id, name, episode.start, 0.0, 0)
                        )
                    continue
                gaps = np.diff(np.concatenate([[episode.start], ep_ts]))
                breaks = np.flatnonzero(gaps > silence_gap)
                last = (breaks[0] - 1) if len(breaks) else (len(ep_ts) - 1)
                if last < 0:
                    duration, volume = 0.0, 0
                else:
                    duration = float(ep_ts[last] - episode.start)
                    volume = int(sizes[lo : lo + last + 1].sum())
                samples.append(
                    PersistenceSample(
                        trace.user_id, name, episode.start, duration, volume
                    )
                )
    return samples


def persistence_cdf(
    samples: Iterable[PersistenceSample],
) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted durations, cumulative fraction) for plotting Fig 5."""
    durations = np.sort(np.array([s.duration for s in samples]))
    if len(durations) == 0:
        raise AnalysisError("no persistence samples to build a CDF from")
    fractions = np.arange(1, len(durations) + 1) / len(durations)
    return durations, fractions


def bytes_since_foreground(
    dataset: Dataset,
    bin_seconds: float = 10.0,
    horizon: float = 120 * MINUTE,
    apps: Optional[Iterable[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fig 6: background bytes by time since leaving the foreground.

    Returns ``(bin_left_edges, byte_totals)``: every background-episode
    packet's offset from its episode's transition, binned at
    ``bin_seconds`` up to ``horizon``, summed over apps and users.

    Each (user, app)'s episodes fold in one pass: one ``searchsorted``
    per episode bound, then one ``np.add.at`` per user over every
    episode's packets. The totals are sums of integer byte counts below
    2**53, exact in any order.
    """
    require_packet_detail(dataset, "bytes_since_foreground")
    if bin_seconds <= 0:
        raise AnalysisError(f"bin_seconds must be positive: {bin_seconds}")
    n_bins = int(np.ceil(horizon / bin_seconds))
    totals = np.zeros(n_bins)
    registry = dataset.registry
    app_ids = [registry.id_of(a) for a in apps] if apps is not None else None
    for trace in dataset:
        bins, sizes = [], []
        candidates = app_ids if app_ids is not None else trace.app_ids()
        for app_id in candidates:
            ts, app_sizes = _app_packet_times(trace, app_id)
            if len(ts) == 0:
                continue
            starts, ends = _episode_bounds(trace, app_id)
            lo = np.searchsorted(ts, starts, side="left")
            hi = np.searchsorted(ts, np.minimum(ends, starts + horizon))
            rows, episodes = _episode_rows(lo, hi)
            offsets = ts[rows] - starts[episodes]
            bins.append((offsets // bin_seconds).astype(np.int64))
            sizes.append(app_sizes[rows])
        if bins:
            np.add.at(
                totals,
                np.clip(np.concatenate(bins), 0, n_bins - 1),
                np.concatenate(sizes),
            )
    edges = np.arange(n_bins) * bin_seconds
    return edges, totals


def first_minute_fractions(
    dataset: Dataset, window: float = 60.0
) -> Dict[str, float]:
    """Per-app fraction of background-episode bytes in the first minute.

    The §4.1 headline counts apps whose fraction is >= 0.8; apply
    :func:`fraction_of_apps_above` for that.

    Each (user, app)'s episodes fold in one pass: one ``searchsorted``
    per episode bound, and each episode's bytes as a difference of
    prefix sums. The sums are integer byte counts below 2**53, exact in
    any order.
    """
    require_packet_detail(dataset, "first_minute_fractions")
    first: Dict[int, float] = {}
    total: Dict[int, float] = {}
    for trace in dataset:
        for app_id in trace.app_ids():
            ts, sizes = _app_packet_times(trace, app_id)
            starts, ends = _episode_bounds(trace, app_id)
            lo = np.searchsorted(ts, starts, side="left")
            hi = np.searchsorted(ts, ends, side="left")
            kept = hi > lo
            if not kept.any():
                continue
            lo, hi = lo[kept], hi[kept]
            cut = np.minimum(np.searchsorted(ts, starts[kept] + window, side="left"), hi)
            prefix = np.concatenate(([0], np.cumsum(sizes)))
            total[app_id] = total.get(app_id, 0.0) + float((prefix[hi] - prefix[lo]).sum())
            first[app_id] = first.get(app_id, 0.0) + float((prefix[cut] - prefix[lo]).sum())
    registry = dataset.registry
    return {
        registry.name_of(app_id): first.get(app_id, 0.0) / volume
        for app_id, volume in total.items()
        if volume > 0
    }


def fraction_of_apps_above(
    fractions: Dict[str, float], threshold: float = 0.8
) -> float:
    """Share of apps whose first-minute fraction is >= ``threshold``."""
    if not fractions:
        raise AnalysisError("no apps with background-episode traffic")
    hits = sequential_sum(
        (1 for value in fractions.values() if value >= threshold), zero=0
    )
    return hits / len(fractions)


@dataclass(frozen=True)
class TimelineView:
    """Packet timeline around one background transition (Fig 4)."""

    app: str
    user_id: int
    transition: float
    times: np.ndarray  # seconds relative to the transition
    sizes: np.ndarray
    directions: np.ndarray

    @property
    def background_bytes(self) -> int:
        """Bytes transferred after the transition."""
        return int(self.sizes[self.times >= 0].sum())

    @property
    def foreground_bytes(self) -> int:
        """Bytes transferred before the transition (shown for context)."""
        return int(self.sizes[self.times < 0].sum())


def trace_timeline(
    dataset: Dataset,
    app: str,
    before: float = 5 * MINUTE,
    after: float = 15 * MINUTE,
    min_background_packets: int = 5,
) -> TimelineView:
    """Fig 4: a representative transition where traffic keeps flowing.

    Picks, across all users, the transition of ``app`` with the most
    post-transition bytes (the paper shows a representative Chrome
    trace) and returns the packet timeline around it.
    """
    require_packet_detail(dataset, "trace_timeline")
    app_id = dataset.registry.id_of(app)
    best: Optional[Tuple[float, UserTrace, float]] = None  # (bytes, trace, t)
    for trace in dataset:
        ts, sizes = _app_packet_times(trace, app_id)
        for episode in _episode_spans(trace, app_id):
            lo = np.searchsorted(ts, episode.start, side="left")
            hi = np.searchsorted(ts, min(episode.end, episode.start + after))
            if hi - lo < min_background_packets:
                continue
            volume = float(sizes[lo:hi].sum())
            if best is None or volume > best[0]:
                best = (volume, trace, episode.start)
    if best is None:
        raise AnalysisError(
            f"no transition of {app!r} with >= {min_background_packets} "
            "background packets"
        )
    _, trace, transition = best
    packets = trace.index().app_packets(app_id)
    ts = packets.timestamps
    mask = (ts >= transition - before) & (ts < transition + after)
    return TimelineView(
        app=app,
        user_id=trace.user_id,
        transition=transition,
        times=ts[mask] - transition,
        sizes=packets.sizes[mask].astype(np.int64),
        directions=packets.directions[mask],
    )


def transition_stats_for(
    dataset: Dataset,
    apps: Iterable[str],
    silence_gap: float = DEFAULT_SILENCE_GAP,
) -> List[TransitionStats]:
    """Per-app persistence summaries (Fig 5 condensed to a table)."""
    out: List[TransitionStats] = []
    for app in apps:
        samples = persistence_durations(dataset, app=app, silence_gap=silence_gap)
        out.append(TransitionStats.from_samples(app, samples))
    return out
