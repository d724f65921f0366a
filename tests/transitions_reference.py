"""The §4.1 episode analyses as they stood before the array folds,
frozen as the bit-exact reference for ``repro.core.transitions``.

:func:`bytes_since_foreground` and :func:`first_minute_fractions` are
the old module's, their bodies copied verbatim: they walk each
(user, app)'s background episodes one at a time, with one
``searchsorted`` per bound and one ``np.add.at`` (Fig 6) or two slice
sums (the first-minute headline) per episode, over the app's gathered
packet records. The
folds in ``src`` must equal this copy exactly: bins by ``tobytes()``,
fractions as dicts in key order. Import it like ``conftest``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.readout import require_packet_detail
from repro.errors import AnalysisError
from repro.trace.dataset import Dataset
from repro.trace.intervals import BackgroundTransition
from repro.trace.trace import UserTrace
from repro.units import MINUTE


def _episode_spans(
    trace: UserTrace, app_id: int
) -> Tuple[BackgroundTransition, ...]:
    return trace.index().background_episodes(app_id)


def _app_packet_times(trace: UserTrace, app_id: int) -> Tuple[np.ndarray, np.ndarray]:
    packets = trace.index().app_packets(app_id)
    return packets.timestamps, packets.sizes.astype(np.int64)


def bytes_since_foreground(
    dataset: Dataset,
    bin_seconds: float = 10.0,
    horizon: float = 120 * MINUTE,
    apps: Optional[Iterable[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fig 6: background bytes by time since leaving the foreground."""
    require_packet_detail(dataset, "bytes_since_foreground")
    if bin_seconds <= 0:
        raise AnalysisError(f"bin_seconds must be positive: {bin_seconds}")
    n_bins = int(np.ceil(horizon / bin_seconds))
    totals = np.zeros(n_bins)
    registry = dataset.registry
    app_ids = [registry.id_of(a) for a in apps] if apps is not None else None
    for trace in dataset:
        candidates = app_ids if app_ids is not None else trace.app_ids()
        for app_id in candidates:
            ts, sizes = _app_packet_times(trace, app_id)
            if len(ts) == 0:
                continue
            for episode in _episode_spans(trace, app_id):
                lo = np.searchsorted(ts, episode.start, side="left")
                hi = np.searchsorted(ts, min(episode.end, episode.start + horizon))
                if hi <= lo:
                    continue
                offsets = ts[lo:hi] - episode.start
                bins = (offsets // bin_seconds).astype(np.int64)
                np.add.at(totals, np.clip(bins, 0, n_bins - 1), sizes[lo:hi])
    edges = np.arange(n_bins) * bin_seconds
    return edges, totals


def first_minute_fractions(
    dataset: Dataset, window: float = 60.0
) -> Dict[str, float]:
    """Per-app fraction of background-episode bytes in the first minute."""
    require_packet_detail(dataset, "first_minute_fractions")
    first: Dict[int, float] = {}
    total: Dict[int, float] = {}
    for trace in dataset:
        for app_id in trace.app_ids():
            ts, sizes = _app_packet_times(trace, app_id)
            for episode in _episode_spans(trace, app_id):
                lo = np.searchsorted(ts, episode.start, side="left")
                hi = np.searchsorted(ts, episode.end, side="left")
                if hi <= lo:
                    continue
                cut = np.searchsorted(ts, episode.start + window, side="left")
                cut = min(cut, hi)
                total[app_id] = total.get(app_id, 0.0) + float(sizes[lo:hi].sum())
                first[app_id] = first.get(app_id, 0.0) + float(sizes[lo:cut].sum())
    registry = dataset.registry
    return {
        registry.name_of(app_id): first.get(app_id, 0.0) / volume
        for app_id, volume in total.items()
        if volume > 0
    }
