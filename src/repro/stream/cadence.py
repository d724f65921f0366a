"""Incremental background flow/burst cadence tracking.

Table 1 needs more than keyed totals: per-app background flow counts
and inter-burst intervals. :class:`CadenceTracker` accumulates both
chunk by chunk at the paper's default gaps while the packets go by, so
a streamed (or sharded) ingest still renders a byte-identical Table 1
without ever holding a whole trace. Split out of ``stream.ingest`` so
the shard executors (:mod:`repro.shard`) can reuse it without pulling
in the driver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.periodicity import DEFAULT_BURST_GAP
from repro.core.readout import DEFAULT_FLOW_GAP
from repro.keyed import APP_KEY_BOUND
from repro.trace.arrays import PacketArray
from repro.trace.events import state_background_mask

#: A saved tracker's payload members, in checkpoint order, and dtypes.
CADENCE_MEMBERS = {
    "flow_keys": np.int64,
    "flow_last": np.float64,
    "flow_count_apps": np.int64,
    "flow_counts": np.int64,
    "burst_apps": np.int64,
    "burst_counts": np.int64,
    "burst_last_ts": np.float64,
    "burst_last_start": np.float64,
    "interval_offsets": np.int64,
    "intervals": np.float64,
}

#: Payload members holding one entry per key of another member.
_PAIRED = {
    "flow_last": "flow_keys",
    "flow_counts": "flow_count_apps",
    "burst_counts": "burst_apps",
    "burst_last_ts": "burst_apps",
    "burst_last_start": "burst_apps",
}

#: Key members and their key bounds: flow keys are ``(app << 32) |
#: conn``, with a ``uint32`` connection id; the others are app ids.
_KEY_BOUNDS = {
    "flow_keys": APP_KEY_BOUND << 32,
    "flow_count_apps": APP_KEY_BOUND,
    "burst_apps": APP_KEY_BOUND,
}


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    return np.flatnonzero(
        np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
    )


def cadence_defect(
    payload: Dict[str, np.ndarray]
) -> Optional[Tuple[str, str]]:
    """Why ``payload`` is not a saved :class:`CadenceTracker`, as
    ``(member, defect)``, or ``None``.

    A saved payload's members are 1-D arrays of the
    :data:`CADENCE_MEMBERS` dtypes; each paired member is as long as
    its keys; the app and flow keys are strictly increasing and within
    their bounds; and ``interval_offsets`` holds one entry more than
    ``burst_apps``, rising from 0 to ``len(intervals)``.
    :meth:`CadenceTracker.from_payload` zips the members, so a short
    one would otherwise drop an app's cadence without a word.
    """
    arrays = {name: np.asarray(payload[name]) for name in CADENCE_MEMBERS}
    for name, dtype in CADENCE_MEMBERS.items():
        found = arrays[name]
        if found.dtype != dtype or found.ndim != 1:
            return name, (
                f"{found.dtype} of shape {found.shape}, not 1-D "
                f"{np.dtype(dtype)}"
            )
    for name, keys in _PAIRED.items():
        if len(arrays[name]) != len(arrays[keys]):
            return name, (
                f"{len(arrays[name])} entries for {len(arrays[keys])} {keys}"
            )
    for name, bound in _KEY_BOUNDS.items():
        keys = arrays[name]
        if len(keys) and (keys.min() < 0 or keys.max() >= bound):
            return name, (
                f"keys span [{keys.min()}, {keys.max()}], outside "
                f"[0, {bound})"
            )
        if np.any(np.diff(keys) <= 0):
            return name, "keys are not strictly increasing"
    offsets = arrays["interval_offsets"]
    n_apps, n_intervals = len(arrays["burst_apps"]), len(arrays["intervals"])
    if len(offsets) != n_apps + 1:
        return "interval_offsets", (
            f"{len(offsets)} entries for {n_apps} burst_apps, not "
            f"{n_apps + 1}"
        )
    if offsets[0] != 0 or offsets[-1] != n_intervals or np.any(
        np.diff(offsets) < 0
    ):
        return "interval_offsets", (
            f"offsets do not rise from 0 to the {n_intervals} intervals"
        )
    return None


def _carried(
    state: Dict[int, float], keys: List[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Each key's carried value (NaN when absent) and whether it has one."""
    values = np.array([state.get(k, np.nan) for k in keys], dtype=np.float64)
    known = np.array([k in state for k in keys], dtype=bool)
    return values, known


class CadenceTracker:
    """Incremental background flow/burst cadence for one user.

    Tracks, chunk by chunk, exactly what the batch
    :meth:`~repro.core.accounting.StudyEnergy.background_cadence`
    computes from the full arrays: per-app background flow counts (an
    ``(app, conn)`` pair starts a new flow after ``flow_gap`` of
    silence — the strict ``>`` rule of
    :func:`~repro.trace.flow.reconstruct_flows`) and per-app burst
    starts plus inter-burst intervals (the strict ``>`` rule of
    :func:`~repro.core.periodicity.burst_starts`).

    :meth:`observe` costs a fixed number of numpy passes per chunk,
    however many apps and connections the chunk holds: one stable sort
    per rule, one gap test over the whole sorted chunk, and one dict
    lookup per group for the carried state. Counts are integers, so
    chunking-exact; every gap and interval is a single ``float64``
    subtraction of the same two timestamps the whole-trace ``np.diff``
    subtracts (a group's first packet against the carried last
    timestamp, an app's first start against its carried last start),
    so the pooled intervals are bit-identical too.
    """

    def __init__(
        self,
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> None:
        self.flow_gap = float(flow_gap)
        self.burst_gap = float(burst_gap)
        #: ``(app << 32) | conn`` -> last background packet timestamp.
        self._flow_last: Dict[int, float] = {}
        #: app -> background flows opened so far.
        self._flow_counts: Dict[int, int] = {}
        #: app -> last background packet timestamp (burst clustering).
        self._burst_last_ts: Dict[int, float] = {}
        #: app -> start time of the latest burst.
        self._burst_last_start: Dict[int, float] = {}
        #: app -> bursts counted so far.
        self._burst_counts: Dict[int, int] = {}
        #: app -> chronological list of inter-burst interval arrays.
        self._intervals: Dict[int, List[np.ndarray]] = {}

    def observe(self, packets: PacketArray) -> None:
        """Fold one raw (time-sorted) chunk into the cadence state."""
        if len(packets) == 0:
            return
        mask = state_background_mask(packets.states)
        if not mask.any():
            return
        ts = packets.timestamps[mask]
        apps = packets.apps[mask]
        self._observe_bursts(apps, ts)
        self._observe_flows(apps, packets.conns[mask], ts)

    def _observe_bursts(self, apps: np.ndarray, ts: np.ndarray) -> None:
        # Stable, so each app's packets keep their time order.
        order = np.argsort(apps, kind="stable")
        s_ts = ts[order]
        first = _run_starts(apps[order])
        last = np.append(first[1:], len(s_ts)) - 1
        group_apps = apps[order[first]].tolist()
        # Each packet's predecessor within its app; an app's first packet
        # here follows its carried last timestamp, or opens a burst.
        last_ts, seen = _carried(self._burst_last_ts, group_apps)
        prev = np.empty_like(s_ts)
        prev[1:] = s_ts[:-1]
        prev[first] = last_ts
        is_start = (s_ts - prev) > self.burst_gap
        is_start[first[~seen]] = True
        self._burst_last_ts.update(zip(group_apps, s_ts[last].tolist()))

        n_starts = np.add.reduceat(is_start, first, dtype=np.int64)
        hi = np.cumsum(n_starts)
        lo = hi - n_starts
        opened = np.flatnonzero(n_starts)
        starts = s_ts[is_start]
        # Each start's interval runs from the previous start of its app;
        # an app's first start here runs from its carried last start.
        last_start, started = _carried(self._burst_last_start, group_apps)
        before = np.empty_like(starts)
        before[1:] = starts[:-1]
        before[lo[opened]] = last_start[opened]
        intervals = starts - before
        lo += ~started  # an app's first start ever has no interval
        for g, a, b, n, start in zip(
            opened.tolist(),
            lo[opened].tolist(),
            hi[opened].tolist(),
            n_starts[opened].tolist(),
            starts[hi[opened] - 1].tolist(),
        ):
            app = group_apps[g]
            if b > a:
                self._intervals.setdefault(app, []).append(intervals[a:b])
            self._burst_counts[app] = self._burst_counts.get(app, 0) + n
            self._burst_last_start[app] = start

    def _observe_flows(
        self, apps: np.ndarray, conns: np.ndarray, ts: np.ndarray
    ) -> None:
        keys = (apps.astype(np.int64) << 32) | conns
        # Stable, so each (app, conn) group keeps its time order.
        order = np.argsort(keys, kind="stable")
        s_keys = keys[order]
        s_ts = ts[order]
        first = _run_starts(s_keys)
        last = np.append(first[1:], len(s_ts)) - 1
        group_keys = s_keys[first].tolist()
        # A packet opens a flow after flow_gap of silence on its (app,
        # conn); a group's first packet here is timed from the carried
        # last packet, and opens one when the pair is new.
        last_ts, seen = _carried(self._flow_last, group_keys)
        prev = np.empty_like(s_ts)
        prev[1:] = s_ts[:-1]
        prev[first] = last_ts
        is_new = (s_ts - prev) > self.flow_gap
        is_new[first[~seen]] = True
        self._flow_last.update(zip(group_keys, s_ts[last].tolist()))

        group_apps = s_keys[first] >> 32
        app_first = _run_starts(group_apps)
        per_app = np.add.reduceat(is_new, first[app_first], dtype=np.int64)
        opened = np.flatnonzero(per_app)
        for app, n in zip(
            group_apps[app_first[opened]].tolist(), per_app[opened].tolist()
        ):
            self._flow_counts[app] = self._flow_counts.get(app, 0) + n

    def summary(self) -> Dict[int, Tuple[int, int, np.ndarray]]:
        """app -> (n_flows, n_bursts, intervals), for the readout."""
        out: Dict[int, Tuple[int, int, np.ndarray]] = {}
        for app in sorted(self._burst_last_ts):
            parts = self._intervals.get(app)
            intervals = (
                np.concatenate(parts) if parts else np.empty(0, np.float64)
            )
            out[app] = (
                self._flow_counts.get(app, 0),
                self._burst_counts.get(app, 0),
                intervals,
            )
        return out

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, np.ndarray]:
        """Fixed-name array members (checkpoint serialisation)."""
        flow_keys = np.array(sorted(self._flow_last), dtype=np.int64)
        burst_apps = np.array(sorted(self._burst_last_ts), dtype=np.int64)
        flow_count_apps = np.array(sorted(self._flow_counts), dtype=np.int64)
        parts = [
            (
                np.concatenate(self._intervals[int(app)])
                if int(app) in self._intervals
                else np.empty(0, np.float64)
            )
            for app in burst_apps
        ]
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        if parts:
            offsets[1:] = np.cumsum([len(p) for p in parts])
        return {
            "flow_keys": flow_keys,
            "flow_last": np.array(
                [self._flow_last[int(k)] for k in flow_keys], dtype=np.float64
            ),
            "flow_count_apps": flow_count_apps,
            "flow_counts": np.array(
                [self._flow_counts[int(a)] for a in flow_count_apps],
                dtype=np.int64,
            ),
            "burst_apps": burst_apps,
            "burst_counts": np.array(
                [self._burst_counts.get(int(a), 0) for a in burst_apps],
                dtype=np.int64,
            ),
            "burst_last_ts": np.array(
                [self._burst_last_ts[int(a)] for a in burst_apps],
                dtype=np.float64,
            ),
            "burst_last_start": np.array(
                [
                    self._burst_last_start.get(int(a), np.nan)
                    for a in burst_apps
                ],
                dtype=np.float64,
            ),
            "interval_offsets": offsets,
            "intervals": (
                np.concatenate(parts) if parts else np.empty(0, np.float64)
            ),
        }

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, np.ndarray],
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> "CadenceTracker":
        tracker = cls(flow_gap, burst_gap)
        for k, v in zip(payload["flow_keys"], payload["flow_last"]):
            tracker._flow_last[int(k)] = float(v)
        for a, c in zip(payload["flow_count_apps"], payload["flow_counts"]):
            tracker._flow_counts[int(a)] = int(c)
        offsets = np.asarray(payload["interval_offsets"], np.int64)
        intervals = np.asarray(payload["intervals"], np.float64)
        for i, (app, count, last_ts, last_start) in enumerate(
            zip(
                payload["burst_apps"],
                payload["burst_counts"],
                payload["burst_last_ts"],
                payload["burst_last_start"],
            )
        ):
            app = int(app)
            tracker._burst_counts[app] = int(count)
            tracker._burst_last_ts[app] = float(last_ts)
            if not np.isnan(last_start):
                tracker._burst_last_start[app] = float(last_start)
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            if hi > lo:
                tracker._intervals[app] = [intervals[lo:hi].copy()]
        return tracker
