"""Per-app process-state timelines.

Analyses need two views of the process-state event stream:

* contiguous per-app state intervals (who was in which state when), and
* a per-packet state label (which state was the sending app in when the
  packet was captured) — the basis of the paper's Figure 3.

Both are built here. Labelling is vectorised per app via
``numpy.searchsorted`` so it stays cheap on million-packet traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import TraceError
from repro.trace.arrays import PacketArray, STATE_UNLABELLED
from repro.trace.events import (
    BACKGROUND_STATES,
    FOREGROUND_STATES,
    EventLog,
    ProcessState,
)


@dataclass(frozen=True)
class StateInterval:
    """App was in ``state`` during ``[start, end)``."""

    start: float
    end: float
    state: ProcessState

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.end - self.start


def app_state_intervals(
    log: EventLog,
    app: int,
    t_start: float,
    t_end: float,
    initial_state: ProcessState = ProcessState.NOT_RUNNING,
) -> List[StateInterval]:
    """Contiguous state intervals of one app over ``[t_start, t_end)``.

    Events outside the window still determine the state *at* the window
    edges. Zero-length intervals (two events at the same instant) are
    dropped.
    """
    if t_end < t_start:
        raise TraceError(f"t_end {t_end} before t_start {t_start}")
    intervals: List[StateInterval] = []
    state = initial_state
    cursor = t_start
    for timestamp, _, value in log.process_for_app(app).tolist():
        if timestamp <= t_start:
            state = ProcessState(value)
            continue
        if timestamp >= t_end:
            break
        if timestamp > cursor:
            intervals.append(StateInterval(cursor, timestamp, state))
        cursor = timestamp
        state = ProcessState(value)
    if t_end > cursor:
        intervals.append(StateInterval(cursor, t_end, state))
    return intervals


def state_durations(intervals: Sequence[StateInterval]) -> dict:
    """Total seconds spent in each state across ``intervals``."""
    totals: dict = {}
    for interval in intervals:
        totals[interval.state] = totals.get(interval.state, 0.0) + interval.duration
    return totals


def label_packet_states(
    packets: PacketArray,
    log: EventLog,
    default_state: ProcessState = ProcessState.SERVICE,
) -> np.ndarray:
    """Label every packet with its app's process state at capture time.

    Packets of apps with no process events at all get ``default_state``
    (the measurement software occasionally misses transitions for
    short-lived system services; ``SERVICE`` is the paper's conservative
    bucket for such traffic). The label column of ``packets`` is
    updated in place and the label array returned.
    """
    n = len(packets)
    labels = np.full(n, int(default_state), dtype=np.uint8)
    if n == 0:
        packets.data["state"] = labels
        return labels
    ts = packets.timestamps
    apps = packets.apps
    for app in np.unique(apps):
        events = log.process_for_app(int(app))
        if not len(events):
            continue
        mask = apps == app
        idx = np.searchsorted(events["timestamp"], ts[mask], side="right") - 1
        labels[mask] = np.where(
            idx >= 0, events["state"][np.clip(idx, 0, None)], int(default_state)
        )
    packets.data["state"] = labels
    return labels


@dataclass(frozen=True)
class BackgroundTransition:
    """One foreground-group -> background-group transition of an app.

    ``end`` is when the app next left the background group (back to
    foreground, or killed), or the end of the observation window.
    """

    app: int
    start: float
    end: float


def background_transitions(
    log: EventLog,
    app: int,
    t_end: float,
) -> List[BackgroundTransition]:
    """All transitions of ``app`` from the foreground group to the
    background group, each with the time the background episode ended.

    An episode ends when the app returns to a foreground state or stops
    running; episodes still open at ``t_end`` are truncated there.
    """
    transitions: List[BackgroundTransition] = []
    prev_fg = False
    open_start: float = -1.0
    for timestamp, _, value in log.process_for_app(app).tolist():
        if timestamp >= t_end:
            break
        now_fg = value in FOREGROUND_STATES
        now_bg = value in BACKGROUND_STATES
        if open_start >= 0 and not now_bg:
            transitions.append(BackgroundTransition(app, open_start, timestamp))
            open_start = -1.0
        if prev_fg and now_bg:
            open_start = timestamp
        prev_fg = now_fg
    if open_start >= 0:
        transitions.append(BackgroundTransition(app, open_start, t_end))
    return transitions


def unlabelled_count(packets: PacketArray) -> int:
    """Number of packets still carrying the unlabelled sentinel."""
    return int(np.count_nonzero(packets.states == STATE_UNLABELLED))
