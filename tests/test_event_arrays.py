"""Porting identity for the columnar event log.

:class:`~repro.trace.events.EventLog` used to keep one dataclass per
event, sort lazily, memoise a per-app grouping, and convert to and from
the saved arrays in :mod:`repro.trace.dataset`; the interval functions
read the object lists. The log now holds the saved arrays themselves.
The original code is frozen below (``Legacy*``/``legacy_*``, copied
verbatim from the pre-port modules apart from the names), and the
ported code must reproduce it exactly: saved member bytes, per-app
event order (ties included), packet labels, background transitions,
state intervals and the doze policy's drop mask.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import StudyConfig, generate_study
from repro.errors import TraceError
from repro.policy import DozePolicy, PolicyContext
from repro.policy import drops
from repro.trace.arrays import PacketArray
from repro.trace.dataset import Dataset
from repro.trace.events import (
    EventLog,
    ProcessState,
    ProcessStateEvent,
    ScreenEvent,
    UserInputEvent,
    is_background,
    is_foreground,
)
from repro.trace.index import TraceIndex
from repro.trace.intervals import (
    BackgroundTransition,
    StateInterval,
    app_state_intervals,
    background_transitions,
    label_packet_states,
)
from repro.trace.packet import Direction
from repro.workload import generator


# ----------------------------------------------------------------------
# Frozen pre-port code
# ----------------------------------------------------------------------
class LegacyEventLog:
    """Time-ordered container for the three event streams of one device.

    Events may be appended in any order; the log sorts lazily on first
    read access and stays sorted afterwards.
    """

    def __init__(
        self,
        process_events: Iterable[ProcessStateEvent] = (),
        screen_events: Iterable[ScreenEvent] = (),
        input_events: Iterable[UserInputEvent] = (),
    ) -> None:
        self._process: List[ProcessStateEvent] = list(process_events)
        self._screen: List[ScreenEvent] = list(screen_events)
        self._input: List[UserInputEvent] = list(input_events)
        self._sorted = False
        self._by_app: Optional[dict] = None

    def add_process_event(self, event: ProcessStateEvent) -> None:
        """Append a process-state transition."""
        self._process.append(event)
        self._sorted = False
        self._by_app = None

    def add_screen_event(self, event: ScreenEvent) -> None:
        """Append a screen on/off transition."""
        self._screen.append(event)
        self._sorted = False

    def add_input_event(self, event: UserInputEvent) -> None:
        """Append a user-input event."""
        self._input.append(event)
        self._sorted = False

    def extend_process_events(self, events: Iterable[ProcessStateEvent]) -> None:
        """Append many process-state transitions at once."""
        self._process.extend(events)
        self._sorted = False
        self._by_app = None

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._process.sort(key=lambda e: e.timestamp)
            self._screen.sort(key=lambda e: e.timestamp)
            self._input.sort(key=lambda e: e.timestamp)
            self._sorted = True

    @property
    def process_events(self) -> Sequence[ProcessStateEvent]:
        """All process-state events, time-ordered."""
        self._ensure_sorted()
        return self._process

    @property
    def screen_events(self) -> Sequence[ScreenEvent]:
        """All screen events, time-ordered."""
        self._ensure_sorted()
        return self._screen

    @property
    def input_events(self) -> Sequence[UserInputEvent]:
        """All user-input events, time-ordered."""
        self._ensure_sorted()
        return self._input

    def process_events_for_app(self, app: int) -> Sequence[ProcessStateEvent]:
        """Time-ordered process-state events of a single app."""
        self._ensure_sorted()
        if self._by_app is None:
            by_app: dict = {}
            for event in self._process:
                by_app.setdefault(event.app, []).append(event)
            self._by_app = by_app
        return self._by_app.get(app, [])

    def apps(self) -> List[int]:
        """Sorted ids of all apps appearing in the process-event stream."""
        return sorted({e.app for e in self.process_events})

    def screen_on_at(self, timestamp: float) -> bool:
        """Screen state at ``timestamp`` (``False`` before any event)."""
        events = self.screen_events
        times = [e.timestamp for e in events]
        idx = bisect.bisect_right(times, timestamp) - 1
        if idx < 0:
            return False
        return events[idx].on

    def merge(self, other: "LegacyEventLog") -> "LegacyEventLog":
        """Return a new log with the union of both logs' events."""
        return LegacyEventLog(
            list(self.process_events) + list(other.process_events),
            list(self.screen_events) + list(other.screen_events),
            list(self.input_events) + list(other.input_events),
        )

    def validate(self) -> None:
        """Raise :class:`TraceError` on negative timestamps."""
        for stream in (self.process_events, self.screen_events, self.input_events):
            for event in stream:
                if event.timestamp < 0:
                    raise TraceError(
                        f"event has negative timestamp: {event!r}"
                    )

    def __len__(self) -> int:
        return len(self._process) + len(self._screen) + len(self._input)

    def __iter__(self) -> Iterator:
        """Iterate over all events of every stream in time order."""
        self._ensure_sorted()
        merged = list(self._process) + list(self._screen) + list(self._input)
        merged.sort(key=lambda e: e.timestamp)
        return iter(merged)


_PROC_DTYPE = np.dtype([("timestamp", "f8"), ("app", "u2"), ("state", "u1")])
_SCREEN_DTYPE = np.dtype([("timestamp", "f8"), ("on", "u1")])
_INPUT_DTYPE = np.dtype([("timestamp", "f8"), ("app", "u2")])


def legacy_process_events_to_array(log: LegacyEventLog) -> np.ndarray:
    events = log.process_events
    out = np.empty(len(events), dtype=_PROC_DTYPE)
    for i, e in enumerate(events):
        out[i] = (e.timestamp, e.app, int(e.state))
    return out


def legacy_screen_events_to_array(log: LegacyEventLog) -> np.ndarray:
    events = log.screen_events
    out = np.empty(len(events), dtype=_SCREEN_DTYPE)
    for i, e in enumerate(events):
        out[i] = (e.timestamp, int(e.on))
    return out


def legacy_input_events_to_array(log: LegacyEventLog) -> np.ndarray:
    events = log.input_events
    out = np.empty(len(events), dtype=_INPUT_DTYPE)
    for i, e in enumerate(events):
        out[i] = (e.timestamp, e.app)
    return out


def legacy_event_log_from_arrays(
    proc: np.ndarray, screen: np.ndarray, inputs: np.ndarray
) -> LegacyEventLog:
    return LegacyEventLog(
        process_events=[
            ProcessStateEvent(float(r["timestamp"]), int(r["app"]), ProcessState(int(r["state"])))
            for r in proc
        ],
        screen_events=[
            ScreenEvent(float(r["timestamp"]), bool(r["on"])) for r in screen
        ],
        input_events=[
            UserInputEvent(float(r["timestamp"]), int(r["app"])) for r in inputs
        ],
    )


def legacy_app_state_intervals(
    log: LegacyEventLog,
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
    events = log.process_events_for_app(app)
    intervals: List[StateInterval] = []
    state = initial_state
    cursor = t_start
    for event in events:
        if event.timestamp <= t_start:
            state = event.state
            continue
        if event.timestamp >= t_end:
            break
        if event.timestamp > cursor:
            intervals.append(StateInterval(cursor, event.timestamp, state))
        cursor = event.timestamp
        state = event.state
    if t_end > cursor:
        intervals.append(StateInterval(cursor, t_end, state))
    return intervals


def legacy_label_packet_states(
    packets: PacketArray,
    log: LegacyEventLog,
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
        events = log.process_events_for_app(int(app))
        mask = apps == app
        if not events:
            continue
        ev_times = np.array([e.timestamp for e in events])
        ev_states = np.array([int(e.state) for e in events], dtype=np.uint8)
        idx = np.searchsorted(ev_times, ts[mask], side="right") - 1
        app_labels = np.where(
            idx >= 0, ev_states[np.clip(idx, 0, None)], int(default_state)
        ).astype(np.uint8)
        labels[mask] = app_labels
    packets.data["state"] = labels
    return labels


def legacy_background_transitions(
    log: LegacyEventLog,
    app: int,
    t_end: float,
) -> List[BackgroundTransition]:
    """All transitions of ``app`` from the foreground group to the
    background group, each with the time the background episode ended.

    An episode ends when the app returns to a foreground state or stops
    running; episodes still open at ``t_end`` are truncated there.
    """
    events = log.process_events_for_app(app)
    transitions: List[BackgroundTransition] = []
    prev_fg = False
    open_start: float = -1.0
    for event in events:
        if event.timestamp >= t_end:
            break
        now_fg = is_foreground(event.state)
        now_bg = is_background(event.state)
        if open_start >= 0 and not now_bg:
            transitions.append(BackgroundTransition(app, open_start, event.timestamp))
            open_start = -1.0
        if prev_fg and now_bg:
            open_start = event.timestamp
        prev_fg = now_fg
    if open_start >= 0:
        transitions.append(BackgroundTransition(app, open_start, t_end))
    return transitions


def legacy_doze_drop(packets, screen, is_bg, screen_off_threshold):
    """The doze transform's drop mask, as ``DozePolicy.transform`` built
    it from the screen-event objects (no whitelist)."""
    ts = packets.timestamps
    ev_times = np.array([e.timestamp for e in screen])
    ev_on = np.array([e.on for e in screen], dtype=bool)
    idx = np.searchsorted(ev_times, ts, side="right") - 1
    off_since = np.where(
        (idx >= 0) & ~ev_on[np.clip(idx, 0, None)],
        ts - ev_times[np.clip(idx, 0, None)],
        0.0,
    )
    return is_bg & (off_since > screen_off_threshold)


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
def assert_ports_identically(new: EventLog, old: LegacyEventLog, packets, end):
    """Every read of ``new`` equals the legacy read of ``old``."""
    for array, legacy in (
        (new.process, legacy_process_events_to_array(old)),
        (new.screen, legacy_screen_events_to_array(old)),
        (new.input, legacy_input_events_to_array(old)),
    ):
        assert array.dtype == legacy.dtype
        assert array.tobytes() == legacy.tobytes()
        assert not array.flags.writeable
    assert new.process_events == list(old.process_events)
    assert new.screen_events == list(old.screen_events)
    assert new.input_events == list(old.input_events)
    assert list(new) == list(old)
    assert len(new) == len(old)
    assert new.apps() == old.apps()
    times = sorted({e.timestamp for e in old} | {0.0, end})
    assert new.last_timestamp == max(
        (e.timestamp for e in old), default=float("-inf")
    )
    for t in times + [t + 0.5 for t in times]:
        assert new.screen_on_at(t) is old.screen_on_at(t)

    apps = sorted(set(old.apps()) | {int(a) for a in np.unique(packets.apps)})
    windows = [(0.0, end), (end / 3, 2 * end / 3), (times[len(times) // 2],) * 2]
    for app in apps + [max(apps, default=0) + 1]:
        assert new.process_events_for_app(app) == list(
            old.process_events_for_app(app)
        )
        assert background_transitions(
            new, app, end
        ) == legacy_background_transitions(old, app, end)
        for t0, t1 in windows:
            assert app_state_intervals(
                new, app, t0, t1
            ) == legacy_app_state_intervals(old, app, t0, t1)

    labelled = PacketArray(packets.data.copy())
    reference = PacketArray(packets.data.copy())
    got = label_packet_states(labelled, new)
    want = legacy_label_packet_states(reference, old)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(labelled.data, reference.data)

    index = TraceIndex(labelled, new, end)
    if len(new.screen) and len(labelled):
        for threshold in (0.25, 3.0, 3600.0):
            masks = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(drops, "drop_packets", lambda _, drop: masks.append(drop))
                DozePolicy(screen_off_threshold=threshold).transform(
                    labelled, PolicyContext(index, 0.0, end, lambda name: 0)
                )
            np.testing.assert_array_equal(
                masks[0],
                legacy_doze_drop(
                    labelled, old.screen_events, index.background_mask, threshold
                ),
            )


# ----------------------------------------------------------------------
# A generated study, with the generator's own (unsorted) event lists
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A small study plus the raw lists the generator built each log
    from, in the generator's order."""
    raw = []

    class Capturing(EventLog):
        def __init__(self, process_events=(), screen_events=(), input_events=()):
            raw.append((list(process_events), list(screen_events), list(input_events)))
            super().__init__(*raw[-1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "EventLog", Capturing)
        dataset = generate_study(StudyConfig(n_users=3, duration_days=5.0, seed=7))
    path = tmp_path_factory.mktemp("events") / "study.npz"
    dataset.save(path)
    return dataset, raw, path


def test_generated_study_has_ties(generated):
    """The study exercises tie order: some app logs two transitions at
    one instant, in an order the sort must keep."""
    _, raw, _ = generated
    stamps = [e.timestamp for process, _, _ in raw for e in process]
    assert len(stamps) > len(set(stamps))
    assert any(p != sorted(p, key=lambda e: e.timestamp) for p, _, _ in raw)


def test_generated_study_ports_identically(generated):
    dataset, raw, path = generated
    with np.load(path) as archive:
        for trace, streams in zip(dataset, raw):
            old = LegacyEventLog(*streams)
            uid = trace.user_id
            for kind, legacy in (
                ("proc", legacy_process_events_to_array(old)),
                ("screen", legacy_screen_events_to_array(old)),
                ("input", legacy_input_events_to_array(old)),
            ):
                saved = archive[f"{kind}_{uid}"]
                assert saved.dtype == legacy.dtype
                assert saved.tobytes() == legacy.tobytes()
            members = [archive[f"{kind}_{uid}"] for kind in ("proc", "screen", "input")]
            loaded = EventLog.from_arrays(*members)
            legacy_loaded = legacy_event_log_from_arrays(*members)
            for new in (trace.events, loaded):
                assert_ports_identically(new, old, trace.packets, trace.end)
                assert_ports_identically(
                    new, legacy_loaded, trace.packets, trace.end
                )


def test_load_then_save_is_byte_identical(generated, tmp_path):
    _, _, path = generated
    again = Dataset.load(path).save(tmp_path / "again.npz")
    assert again.read_bytes() == path.read_bytes()


# ----------------------------------------------------------------------
# Built logs: out-of-order input, ties within and across apps
# ----------------------------------------------------------------------
#: Few distinct instants, so ties are common.
_TIMES = st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0, 9.75])
_APPS = st.integers(min_value=1, max_value=4)

process_lists = st.lists(
    st.builds(ProcessStateEvent, _TIMES, _APPS, st.sampled_from(list(ProcessState))),
    max_size=30,
)
screen_lists = st.lists(st.builds(ScreenEvent, _TIMES, st.booleans()), max_size=12)
input_lists = st.lists(st.builds(UserInputEvent, _TIMES, _APPS), max_size=12)
packet_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=12.0, allow_nan=False) | _TIMES,
        st.integers(min_value=1, max_value=5),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(process_lists, screen_lists, input_lists, packet_lists)
def test_built_logs_port_identically(process, screen, inputs, packet_specs):
    specs = sorted(packet_specs)
    packets = PacketArray.from_columns(
        np.array([t for t, _ in specs], dtype=np.float64),
        np.full(len(specs), 100, dtype=np.uint32),
        np.full(len(specs), int(Direction.DOWNLINK), dtype=np.uint8),
        np.array([a for _, a in specs], dtype=np.uint16),
        np.ones(len(specs), dtype=np.uint32),
    )
    new = EventLog(process, screen, inputs)
    old = LegacyEventLog(process, screen, inputs)
    assert_ports_identically(new, old, packets, 10.0)
    reloaded = EventLog.from_arrays(new.process, new.screen, new.input)
    assert_ports_identically(reloaded, old, packets, 10.0)
