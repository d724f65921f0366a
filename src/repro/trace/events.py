"""Device event streams: process states, screen, user input.

The paper's "background" definition is built from the five main Android
process states ([6] in the paper):

* ``FOREGROUND``  -- the process owns the main UI;
* ``VISIBLE``     -- a secondary UI element is visible;
* ``PERCEPTIBLE`` -- not visible but user-perceptible (e.g. playing music);
* ``SERVICE``     -- a background service the OS avoids killing;
* ``BACKGROUND``  -- killable when memory is low.

The paper groups the first two as "foreground" and the last three as
"background"; :data:`FOREGROUND_STATES` / :data:`BACKGROUND_STATES` encode
that grouping. A sixth pseudo-state ``NOT_RUNNING`` marks periods where
the process does not exist at all (relevant for the what-if kill policy).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, List

import numpy as np

from repro.errors import TraceError


class ProcessState(IntEnum):
    """Android process importance buckets, plus ``NOT_RUNNING``."""

    FOREGROUND = 0
    VISIBLE = 1
    PERCEPTIBLE = 2
    SERVICE = 3
    BACKGROUND = 4
    NOT_RUNNING = 5


#: The paper's "foreground" group (main or secondary UI visible).
FOREGROUND_STATES = frozenset({ProcessState.FOREGROUND, ProcessState.VISIBLE})

#: The paper's "background" group.
BACKGROUND_STATES = frozenset(
    {ProcessState.PERCEPTIBLE, ProcessState.SERVICE, ProcessState.BACKGROUND}
)


def _interned_values(states: Iterable[ProcessState]) -> np.ndarray:
    values = np.array(sorted(int(s) for s in states), dtype=np.uint8)
    values.setflags(write=False)
    return values


#: The background group as a sorted, read-only ``uint8`` array — the one
#: canonical form every ``np.isin(states, …)`` test uses.
BACKGROUND_STATE_VALUES = _interned_values(BACKGROUND_STATES)

#: The foreground group in the same interned array form.
FOREGROUND_STATE_VALUES = _interned_values(FOREGROUND_STATES)


def background_state_values() -> np.ndarray:
    """The paper's background group as a sorted ``uint8`` array.

    Returns the interned (read-only, shared) array — callers must not
    mutate it. Use it instead of rebuilding ``np.array([int(s) for s in
    BACKGROUND_STATES])`` at every call site.
    """
    return BACKGROUND_STATE_VALUES


def foreground_state_values() -> np.ndarray:
    """The paper's foreground group as a sorted ``uint8`` array."""
    return FOREGROUND_STATE_VALUES


#: ``_BACKGROUND_LOOKUP[state]`` is True for the background group, one
#: entry per ``uint8`` state value.
_BACKGROUND_LOOKUP = np.zeros(256, dtype=bool)
_BACKGROUND_LOOKUP[BACKGROUND_STATE_VALUES] = True
_BACKGROUND_LOOKUP.setflags(write=False)


def state_background_mask(states: np.ndarray) -> np.ndarray:
    """Boolean mask of the entries in the paper's background group.

    The one shared membership test over raw ``uint8`` state columns:
    callers outside :mod:`repro.trace` (the streaming cadence tracker)
    use this instead of rebuilding ``np.isin(states,
    BACKGROUND_STATE_VALUES)`` by hand. It is a 256-entry table lookup:
    one gather, about 5× cheaper than ``np.isin`` on an 8,192-state
    chunk.
    """
    return _BACKGROUND_LOOKUP[states]


def is_foreground(state: ProcessState) -> bool:
    """True when ``state`` is in the paper's foreground group."""
    return state in FOREGROUND_STATES


def is_background(state: ProcessState) -> bool:
    """True when ``state`` is in the paper's background group."""
    return state in BACKGROUND_STATES


@dataclass(frozen=True)
class ProcessStateEvent:
    """App ``app`` transitioned to process state ``state`` at ``timestamp``."""

    timestamp: float
    app: int
    state: ProcessState


@dataclass(frozen=True)
class ScreenEvent:
    """The screen turned on (``on=True``) or off at ``timestamp``."""

    timestamp: float
    on: bool


@dataclass(frozen=True)
class UserInputEvent:
    """The user interacted with app ``app`` at ``timestamp``."""

    timestamp: float
    app: int


#: numpy dtype of one process-state event, as :class:`EventLog` holds
#: it and :meth:`~repro.trace.dataset.Dataset.save` writes it.
PROCESS_EVENT_DTYPE = np.dtype(
    [("timestamp", "f8"), ("app", "u2"), ("state", "u1")]
)

#: numpy dtype of one screen event (``on`` is 0 or 1).
SCREEN_EVENT_DTYPE = np.dtype([("timestamp", "f8"), ("on", "u1")])

#: numpy dtype of one user-input event.
INPUT_EVENT_DTYPE = np.dtype([("timestamp", "f8"), ("app", "u2")])


def _records(dtype: np.dtype, *columns: np.ndarray) -> np.ndarray:
    """A structured array of ``dtype`` from its columns, in field order."""
    out = np.empty(len(columns[0]), dtype)
    for name, values in zip(dtype.names, columns):
        out[name] = values
    return out


def _stream(array: np.ndarray, dtype: np.dtype, name: str) -> np.ndarray:
    """``array`` checked, stably sorted by time (a sorted array is not
    copied) and read-only; errors name the stream ``name``."""
    if not isinstance(array, np.ndarray) or array.ndim != 1:
        raise TraceError(f"{name}: expected a 1-d array of dtype {dtype}")
    if array.dtype != dtype:
        raise TraceError(f"{name}: expected dtype {dtype}, got {array.dtype}")
    times = array["timestamp"]
    finite = np.isfinite(times)
    if not finite.all():
        raise TraceError(f"{name}: non-finite timestamp {times[~finite][0]}")
    for field, limit in (("state", len(ProcessState)), ("on", 2)):
        if field in dtype.names and len(array) and array[field].max() >= limit:
            raise TraceError(
                f"{name}: {field} {array[field].max()} out of range "
                f"0..{limit - 1}"
            )
    if (times[1:] < times[:-1]).any():
        array = array[np.argsort(times, kind="stable")]
    array = array.view()
    array.flags.writeable = False
    return array


class EventLog:
    """The three event streams of one device, held as the structured
    arrays :meth:`~repro.trace.dataset.Dataset.save` writes:
    :attr:`process`, :attr:`screen` and :attr:`input`.

    Immutable: each stream is sorted by time once, at construction, by
    a stable sort, so tied events keep their input order; the process
    stream is grouped by app once, the same way; the arrays are
    read-only. The per-event objects (:attr:`process_events` and the
    like) are views, built on each access.
    """

    def __init__(
        self,
        process_events: Iterable[ProcessStateEvent] = (),
        screen_events: Iterable[ScreenEvent] = (),
        input_events: Iterable[UserInputEvent] = (),
    ) -> None:
        self._adopt(
            np.fromiter(
                ((e.timestamp, e.app, e.state) for e in process_events),
                PROCESS_EVENT_DTYPE,
            ),
            np.fromiter(
                ((e.timestamp, e.on) for e in screen_events), SCREEN_EVENT_DTYPE
            ),
            np.fromiter(
                ((e.timestamp, e.app) for e in input_events), INPUT_EVENT_DTYPE
            ),
        )

    @classmethod
    def from_arrays(
        cls, process: np.ndarray, screen: np.ndarray, inputs: np.ndarray
    ) -> "EventLog":
        """A log over arrays of the three event dtypes, adopted (copied
        only to sort one): do not write to them afterwards.

        An array of another dtype, or holding a non-finite timestamp, a
        state that is no :class:`ProcessState` or an ``on`` other than
        0/1, raises :class:`TraceError` naming the stream by its saved
        member prefix (``proc``, ``screen``, ``input``).
        """
        log = cls.__new__(cls)
        log._adopt(process, screen, inputs)
        return log

    @classmethod
    def from_columns(
        cls,
        timestamps: np.ndarray,
        streams: np.ndarray,
        apps: np.ndarray,
        values: np.ndarray,
    ) -> "EventLog":
        """A log over the events of all three streams as columns, in
        input order: ``streams`` holds each event's stream (0 process,
        1 screen, 2 input), ``apps`` its app (read for process and input
        events) and ``values`` its process state or screen ``on`` (read
        for process and screen events).

        Each stream keeps its events in input order up to its stable
        time sort, so the log equals the constructor's over the same
        events in the same order; values are checked as in
        :meth:`from_arrays`.
        """
        process, screen, inputs = (streams == s for s in range(3))
        return cls.from_arrays(
            _records(
                PROCESS_EVENT_DTYPE,
                timestamps[process],
                apps[process],
                values[process],
            ),
            _records(SCREEN_EVENT_DTYPE, timestamps[screen], values[screen]),
            _records(INPUT_EVENT_DTYPE, timestamps[inputs], apps[inputs]),
        )

    def _adopt(
        self, process: np.ndarray, screen: np.ndarray, inputs: np.ndarray
    ) -> None:
        self.process = _stream(process, PROCESS_EVENT_DTYPE, "proc")
        self.screen = _stream(screen, SCREEN_EVENT_DTYPE, "screen")
        self.input = _stream(inputs, INPUT_EVENT_DTYPE, "input")
        self._by_app = self.process[
            np.argsort(self.process["app"], kind="stable")
        ]
        self._by_app.flags.writeable = False
        apps, starts, counts = np.unique(
            self._by_app["app"], return_index=True, return_counts=True
        )
        self._slices = {
            app: slice(start, start + count)
            for app, start, count in zip(
                apps.tolist(), starts.tolist(), counts.tolist()
            )
        }

    def process_for_app(self, app: int) -> np.ndarray:
        """Time-ordered process-state events of a single app."""
        return self._by_app[self._slices.get(int(app), slice(0))]

    @property
    def last_timestamp(self) -> float:
        """Time of the latest event of any stream; ``-inf`` if none."""
        streams = (self.process, self.screen, self.input)
        ends = [events["timestamp"][-1] for events in streams if len(events)]
        return float(max(ends, default=-np.inf))

    @property
    def process_events(self) -> List[ProcessStateEvent]:
        """All process-state events, time-ordered, as objects."""
        return _process_objects(self.process)

    @property
    def screen_events(self) -> List[ScreenEvent]:
        """All screen events, time-ordered, as objects."""
        return [ScreenEvent(t, bool(on)) for t, on in self.screen.tolist()]

    @property
    def input_events(self) -> List[UserInputEvent]:
        """All user-input events, time-ordered, as objects."""
        return [UserInputEvent(t, app) for t, app in self.input.tolist()]

    def process_events_for_app(self, app: int) -> List[ProcessStateEvent]:
        """Time-ordered process-state events of a single app, as objects."""
        return _process_objects(self.process_for_app(app))

    def apps(self) -> List[int]:
        """Sorted ids of all apps appearing in the process-event stream."""
        return list(self._slices)

    def screen_on_at(self, timestamp: float) -> bool:
        """Screen state at ``timestamp`` (``False`` before any event)."""
        idx = np.searchsorted(self.screen["timestamp"], timestamp, "right")
        return bool(idx) and bool(self.screen["on"][idx - 1])

    def validate(self) -> None:
        """Raise :class:`TraceError` on negative timestamps."""
        for name, events in zip(
            ("process", "screen", "input"), (self.process, self.screen, self.input)
        ):
            if len(events) and events["timestamp"][0] < 0:
                first = float(events["timestamp"][0])
                raise TraceError(f"{name} event has negative timestamp {first}")

    def __len__(self) -> int:
        return len(self.process) + len(self.screen) + len(self.input)

    def __iter__(self) -> Iterator:
        """Iterate over all events of every stream in time order."""
        merged = self.process_events + self.screen_events + self.input_events
        merged.sort(key=lambda e: e.timestamp)
        return iter(merged)


def _process_objects(events: np.ndarray) -> List[ProcessStateEvent]:
    return [
        ProcessStateEvent(t, app, ProcessState(state))
        for t, app, state in events.tolist()
    ]
