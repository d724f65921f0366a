"""Event log and process-state grouping."""

import pytest

from repro.errors import TraceError
from repro.trace.events import (
    BACKGROUND_STATES,
    EventLog,
    FOREGROUND_STATES,
    ProcessState,
    ProcessStateEvent,
    ScreenEvent,
    UserInputEvent,
    is_background,
    is_foreground,
)


def test_paper_grouping():
    assert FOREGROUND_STATES == {ProcessState.FOREGROUND, ProcessState.VISIBLE}
    assert BACKGROUND_STATES == {
        ProcessState.PERCEPTIBLE,
        ProcessState.SERVICE,
        ProcessState.BACKGROUND,
    }
    assert is_foreground(ProcessState.VISIBLE)
    assert is_background(ProcessState.SERVICE)
    assert not is_foreground(ProcessState.NOT_RUNNING)
    assert not is_background(ProcessState.NOT_RUNNING)


def test_events_sorted_at_construction():
    log = EventLog(
        process_events=[
            ProcessStateEvent(5.0, 1, ProcessState.BACKGROUND),
            ProcessStateEvent(1.0, 1, ProcessState.FOREGROUND),
        ]
    )
    times = [e.timestamp for e in log.process_events]
    assert times == [1.0, 5.0]
    assert log.process["timestamp"].tolist() == [1.0, 5.0]


def test_per_app_lookup():
    log = EventLog(
        process_events=[
            ProcessStateEvent(1.0, 1, ProcessState.FOREGROUND),
            ProcessStateEvent(2.0, 2, ProcessState.FOREGROUND),
            ProcessStateEvent(3.0, 1, ProcessState.BACKGROUND),
        ]
    )
    assert len(log.process_events_for_app(1)) == 2
    assert log.process_events_for_app(3) == []
    assert log.apps() == [1, 2]


def test_screen_on_at():
    log = EventLog(
        screen_events=[ScreenEvent(10.0, True), ScreenEvent(20.0, False)]
    )
    assert not log.screen_on_at(5.0)
    assert log.screen_on_at(15.0)
    assert not log.screen_on_at(25.0)
    assert log.screen_on_at(10.0)


def test_len_and_iter_order():
    log = EventLog(
        process_events=[ProcessStateEvent(3.0, 1, ProcessState.FOREGROUND)],
        screen_events=[ScreenEvent(1.0, True)],
        input_events=[UserInputEvent(2.0, 1)],
    )
    assert len(log) == 3
    assert [e.timestamp for e in log] == [1.0, 2.0, 3.0]


def test_validate_rejects_negative_timestamp():
    log = EventLog(screen_events=[ScreenEvent(-1.0, True)])
    with pytest.raises(TraceError):
        log.validate()
