"""Policy transforms against frozen copies of their Python loops.

``DelayTolerantPolicy``, ``FrequencyCapPolicy``, ``KillIdlePolicy`` and
``PushConversionPolicy`` run as a fixed number of numpy passes per app.
The loops they replaced — one iteration per burst, per packet or per
day — are frozen below, copied verbatim and renamed only (``legacy_*``).
Every transform must return the same packet bytes, ``moved_packets``
and ``delay_seconds`` (to the bit), and the *original* packets object
exactly where the loop returns it: the engine reuses the attributed
result for that object, so no-op parameters stay free.

Two kinds of input:

* seeded generated studies (3 users x 5 days at seeds 1, 5 and 17, plus
  the shared 8-user x 21-day study for the kill settings), under every
  app scope: all apps, one name, two names in non-ascending id order,
  and none;
* Hypothesis traces near t = 1e6 s, on a 0.5 s grid with sub-grid
  jitter, laid out to hit the boundaries the loops test: a foreground
  packet exactly ``deadline`` after a burst start, gaps of exactly
  ``burst_gap``, ``min_period`` and 30 s (and one ulp either side),
  duplicate timestamps, bursts of 1, 7, 8, 9, 127, 128 and 129 packets
  (numpy's pairwise-summation block edges), packets within 1e-6 s of
  the window end, traces without foreground packets and one-packet
  apps.
"""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import StudyConfig, generate_study
from repro.errors import AnalysisError
from repro.policy import (
    DelayTolerantPolicy,
    FrequencyCapPolicy,
    KillIdlePolicy,
    PolicyContext,
    PolicyTransform,
    PushConversionPolicy,
    app_traffic_days,
    killed_days,
    killed_drop_mask,
)
from repro.policy.base import drop_packets, unchanged
from repro.policy.drops import BURST_WINDOW_S
from repro.trace.arrays import PACKET_DTYPE, PacketArray
from repro.trace.events import ProcessState
from repro.trace.index import TraceIndex
from repro.units import DAY


# ----------------------------------------------------------------------
# Frozen references: the loops, verbatim, renamed only
# ----------------------------------------------------------------------
def legacy_deadline_transform(self, packets, context: PolicyContext) -> PolicyTransform:
    index = context.index
    fg_times = packets.timestamps[index.foreground_mask]
    if len(fg_times) == 0 or self.deadline == 0:
        return unchanged(packets)
    data = None
    moved = 0
    delay = 0.0
    for app_id in context.candidate_apps(self.apps):
        idx = index.app_background_indices(app_id)
        if len(idx) == 0:
            continue
        app_ts = packets.timestamps[idx]
        starts = np.flatnonzero(
            np.concatenate(([True], np.diff(app_ts) > self.burst_gap))
        )
        bounds = np.append(starts, len(app_ts))
        pos = np.searchsorted(fg_times, app_ts[starts], side="left")
        for b in range(len(starts)):
            if pos[b] >= len(fg_times):
                continue
            delta = float(fg_times[pos[b]] - app_ts[starts[b]])
            if not 0.0 < delta <= self.deadline:
                continue
            if data is None:
                data = packets.data.copy()
            rows = idx[bounds[b] : bounds[b + 1]]
            shifted = np.minimum(
                packets.timestamps[rows] + delta, context.end - 1e-6
            )
            delay += float((shifted - packets.timestamps[rows]).sum())
            moved += len(rows)
            data["timestamp"][rows] = shifted
    if data is None:
        return unchanged(packets)
    return PolicyTransform(
        packets=PacketArray(data).sorted_by_time(),
        moved_packets=moved,
        delay_seconds=delay,
    )


def legacy_frequency_cap_transform(self, packets, context: PolicyContext) -> PolicyTransform:
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


def legacy_push_transform(self, packets, context: PolicyContext) -> PolicyTransform:
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


def legacy_killed_days(fg: np.ndarray, bg: np.ndarray, idle_days: int) -> np.ndarray:
    """Days on which the policy would have the app dead.

    The idle counter counts consecutive days without foreground use
    while the app is emitting background traffic; once it reaches
    ``idle_days`` the app is killed until the next foreground day.
    """
    n = len(fg)
    killed = np.zeros(n, dtype=bool)
    idle = 0
    dead = False
    for day in range(n):
        if fg[day]:
            idle = 0
            dead = False
            continue
        if bg[day] or dead:
            idle += 1
        if idle >= idle_days:
            dead = True
            killed[day] = True
    return killed


def legacy_killed_drop_mask(
    index: TraceIndex, app_id: int, killed: np.ndarray, start: float
) -> np.ndarray:
    """Boolean drop mask over the trace's original packets: the app's
    background packets on killed days."""
    packets = index.packets
    idx = index.app_background_indices(app_id)
    days = ((packets.timestamps[idx] - start) // DAY).astype(np.int64)
    days = np.clip(days, 0, len(killed) - 1)
    drop = np.zeros(len(packets), dtype=bool)
    drop[idx[killed[days]]] = True
    return drop


def legacy_app_traffic_days(
    index: TraceIndex, start: float, end: float, app_id: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(has-foreground-traffic, has-background-traffic) day masks.

    Pure over the trace index and window — the same classification
    ``StudyEnergy.app_days_with_traffic`` computes.
    """
    n_days = int(np.ceil((end - start) / DAY))
    ts = index.packets.timestamps
    fg = np.zeros(n_days, dtype=bool)
    bg = np.zeros(n_days, dtype=bool)
    fg_days = (
        (ts[index.app_foreground_indices(app_id)] - start) // DAY
    ).astype(np.int64)
    bg_days = (
        (ts[index.app_background_indices(app_id)] - start) // DAY
    ).astype(np.int64)
    fg[np.unique(fg_days)] = True
    bg[np.unique(bg_days)] = True
    return fg, bg


def legacy_kill_transform(self, packets, context: PolicyContext) -> PolicyTransform:
    drop = np.zeros(len(packets), dtype=bool)
    for app_id in context.candidate_apps(self.apps):
        fg, bg = legacy_app_traffic_days(
            context.index, context.start, context.end, app_id
        )
        killed = legacy_killed_days(fg, bg, self.idle_days)
        if killed.any():
            # Each app's drop mask touches only that app's rows, so
            # the union equals applying the drops one after another.
            drop |= legacy_killed_drop_mask(
                context.index, app_id, killed, context.start
            )
    return drop_packets(packets, drop)


LEGACY = {
    DelayTolerantPolicy: legacy_deadline_transform,
    FrequencyCapPolicy: legacy_frequency_cap_transform,
    KillIdlePolicy: legacy_kill_transform,
    PushConversionPolicy: legacy_push_transform,
}


def assert_same_transform(policy, packets, context):
    """The transform equals its frozen loop, to the bit and the object."""
    want = LEGACY[type(policy)](policy, packets, context)
    got = policy.transform(packets, context)
    if want.packets is packets:
        assert got.packets is packets
    else:
        assert got.packets is not packets
        assert got.packets.data.dtype == want.packets.data.dtype
        assert got.packets.data.tobytes() == want.packets.data.tobytes()
    assert got.moved_packets == want.moved_packets
    assert float(got.delay_seconds).hex() == float(want.delay_seconds).hex()
    return got


# ----------------------------------------------------------------------
# Generated studies
# ----------------------------------------------------------------------
SCOPES = (
    None,
    ("com.facebook.katana",),
    ("com.sec.spp.push", "com.facebook.katana"),
    (),
)

DEADLINE = [
    DelayTolerantPolicy(deadline=d, burst_gap=g)
    for d, g in (
        (60.0, 60.0), (300.0, 60.0), (600.0, 60.0), (1800.0, 5.0),
        (7200.0, 600.0),
    )
]
FREQUENCY_CAP = [
    FrequencyCapPolicy(min_period=p)
    for p in (30.0, 30.5, 60.0, 300.0, 900.0, 1800.0, 3600.0, 86400.0)
]
KILL = [KillIdlePolicy(idle_days=n) for n in range(1, 16)]
PUSH = [
    PushConversionPolicy(min_payload_bytes=b, burst_gap=g)
    for b, g in (
        (0, 60.0), (512, 60.0), (4096, 60.0), (4096, 5.0), (10**9, 600.0),
    )
]


@pytest.fixture(scope="module", params=(1, 5, 17))
def generated(request):
    return generate_study(
        StudyConfig(n_users=3, duration_days=5.0, seed=request.param)
    )


def _contexts(dataset):
    for trace in dataset:
        yield trace.packets, PolicyContext(
            index=trace.index(),
            start=trace.start,
            end=trace.end,
            id_of=dataset.registry.id_of,
        )


def _scoped(policy, apps):
    return type(policy)(**{**policy.params(), "apps": apps})


@pytest.mark.parametrize("apps", SCOPES, ids=repr)
@pytest.mark.parametrize(
    "family", ("deadline", "frequency-cap", "kill", "push")
)
def test_generated_studies_match_the_loops(generated, family, apps):
    policies = {
        "deadline": DEADLINE,
        "frequency-cap": FREQUENCY_CAP,
        "kill": KILL,
        "push": PUSH,
    }[family]
    for policy in policies:
        for packets, context in _contexts(generated):
            assert_same_transform(_scoped(policy, apps), packets, context)


@pytest.mark.parametrize("apps", SCOPES, ids=repr)
def test_kill_matches_the_loop_over_three_weeks(medium_dataset, apps):
    for policy in KILL:
        for packets, context in _contexts(medium_dataset):
            assert_same_transform(_scoped(policy, apps), packets, context)


def test_generated_studies_move_and_drop_something(generated):
    """Guard the guard: the parameter sets above are not all no-ops."""
    for family in (DEADLINE, FREQUENCY_CAP, KILL[:3], PUSH[1:]):
        changed = sum(
            policy.transform(packets, context).packets is not packets
            for policy in family
            for packets, context in _contexts(generated)
        )
        assert changed > 0


def test_day_classification_matches_the_loops(medium_dataset):
    """The public per-app helpers keep their results."""
    for trace in medium_dataset:
        index = trace.index()
        for app_id in index.app_ids:
            fg, bg = app_traffic_days(index, trace.start, trace.end, app_id)
            want_fg, want_bg = legacy_app_traffic_days(
                index, trace.start, trace.end, app_id
            )
            assert np.array_equal(fg, want_fg)
            assert np.array_equal(bg, want_bg)
            for idle in (1, 2, 3, 5):
                killed = killed_days(fg, bg, idle)
                assert np.array_equal(killed, legacy_killed_days(fg, bg, idle))
                assert np.array_equal(
                    killed_drop_mask(index, app_id, killed, trace.start),
                    legacy_killed_drop_mask(index, app_id, killed, trace.start),
                )


@settings(max_examples=300, deadline=None)
@given(
    days=st.lists(st.sampled_from((0, 1, 2, 3)), max_size=30),
    idle=st.integers(-1, 6),
)
def test_killed_days_matches_the_loop(days, idle):
    """Every fg/bg day pattern (0 none, 1 bg, 2 fg, 3 both)."""
    codes = np.array(days, dtype=np.int64)
    fg, bg = codes >= 2, codes % 2 == 1
    assert np.array_equal(
        killed_days(fg, bg, idle), legacy_killed_days(fg, bg, idle)
    )
    both = np.stack([fg, bg, fg & bg, ~fg])
    assert np.array_equal(
        killed_days(both, both[::-1], idle),
        np.array(
            [legacy_killed_days(f, b, idle) for f, b in zip(both, both[::-1])],
            dtype=bool,
        ).reshape(both.shape),
    )


# ----------------------------------------------------------------------
# Hypothesis traces
# ----------------------------------------------------------------------
FG = (int(ProcessState.FOREGROUND), int(ProcessState.VISIBLE))
BG = (
    int(ProcessState.PERCEPTIBLE),
    int(ProcessState.SERVICE),
    int(ProcessState.BACKGROUND),
)
NEITHER = (int(ProcessState.NOT_RUNNING), 255)

#: Trace starts. Near 1e6 s grid sums are exact; just below 2**20 sums
#: that cross it round to the coarser ulp; from 0 a subtraction of an
#: early timestamp from a late one can round too.
BASES = (1e6, 2.0**20 - 700.0, 0.0)

#: Thresholds a trace is laid out around (``params`` draws from these).
DEADLINES = (0.5, 30.0, 60.0, 600.0, 1800.1)
BURST_GAPS = (0.5, 30.0, 60.0)
MIN_PERIODS = (0.5, 30.0, 30.5, 60.0, 1800.0, 1800.1)
BURST_LENGTHS = (1, 7, 8, 9, 127, 128, 129)

#: A step: a plain gap (in 0.5 s grid units), a burst of one app's
#: background packets, an offset of exactly one threshold (give or take
#: a few ulps) from an earlier packet of the same app, or sub-grid
#: jitter.
steps = st.one_of(
    st.tuples(
        st.just("gap"),
        st.one_of(
            st.sampled_from((0, 0, 1, 2, 60, 120, 7200, 86400 * 2)),
            st.integers(0, 4 * 3600),
        ),
    ),
    st.tuples(
        st.just("burst"),
        st.sampled_from(BURST_LENGTHS),
        st.sampled_from((0, 1, 2, 59)),
    ),
    st.tuples(
        st.just("offset"),
        st.sampled_from(("deadline", "burst_gap", "min_period", "window")),
        st.integers(-2, 2),
    ),
    st.tuples(st.just("jitter"), st.floats(1e-9, 0.49)),
)


@st.composite
def traces(draw, kill=False):
    """(packets, start, end, params) laid out around ``params``."""
    params = {
        "deadline": draw(st.sampled_from(DEADLINES)),
        "burst_gap": draw(st.sampled_from(BURST_GAPS)),
        "min_period": draw(st.sampled_from(MIN_PERIODS)),
        "window": BURST_WINDOW_S,
    }
    n_apps = draw(st.integers(1, 4))
    states = BG + NEITHER if draw(st.booleans()) else FG + BG + NEITHER
    start = draw(st.sampled_from(BASES))
    t = start + draw(st.sampled_from((0.0, 0.5, 3600.0)))
    rows = []

    def packet(time, app=None, state=None):
        rows.append(
            (
                time,
                draw(st.sampled_from((0, 40, 300, 1500))),
                app if app is not None else draw(st.integers(1, n_apps)),
                state if state is not None else draw(st.sampled_from(states)),
            )
        )

    packet(t)
    for step in draw(st.lists(steps, max_size=30)):
        kind = step[0]
        if kind == "gap":
            t += 0.5 * step[1]
            packet(t)
        elif kind == "burst":
            app, state = draw(st.integers(1, n_apps)), draw(st.sampled_from(BG))
            for _ in range(step[1]):
                t += 0.5 * step[2]
                packet(t, app, state)
        elif kind == "offset":
            anchor, _, app, _ = draw(st.sampled_from(rows))
            target = anchor + params[step[1]]
            for _ in range(abs(step[2])):
                target = np.nextafter(target, np.inf if step[2] > 0 else -np.inf)
            # A deadline offset lands a foreground packet (when the trace
            # has any); the others continue the same app's background.
            state = (
                draw(st.sampled_from(states))
                if step[1] == "deadline"
                else draw(st.sampled_from(BG))
            )
            packet(float(target), app, state)
            t = max(t, float(target))
        elif kind == "jitter":
            t += step[1]
            packet(t)
    rows.sort(key=lambda r: r[0])
    data = np.zeros(len(rows), dtype=PACKET_DTYPE)
    for name, column in zip(("timestamp", "size", "app", "state"), zip(*rows)):
        data[name] = column
    last = float(data["timestamp"][-1])
    end = last + draw(st.sampled_from((0.0, 5e-7, 1e-6, 2e-6, 0.5, DAY)))
    if kill:
        # The frozen day classification indexes past its last day for
        # a packet at ``end`` (the fixed code's case is covered in
        # test_core_whatif.py), and both index an empty day array when
        # ``end - start`` is too small to count as a day at all.
        end = max(end, float(np.nextafter(last, np.inf)), start + 1.0)
    return PacketArray(data), start, end, params


APP_SCOPES = (None, ("1",), ("2", "1"), ("3", "1", "3"), ())


def _context(packets, start, end):
    return PolicyContext(
        index=TraceIndex(packets), start=start, end=end, id_of=int
    )


@settings(max_examples=300, deadline=None)
@given(trace=traces(), apps=st.sampled_from(APP_SCOPES))
def test_deadline_matches_the_loop(trace, apps):
    packets, start, end, params = trace
    policy = DelayTolerantPolicy(
        deadline=params["deadline"], burst_gap=params["burst_gap"], apps=apps
    )
    assert_same_transform(policy, packets, _context(packets, start, end))


@settings(max_examples=300, deadline=None)
@given(trace=traces(), apps=st.sampled_from(APP_SCOPES))
def test_frequency_cap_matches_the_loop(trace, apps):
    packets, start, end, params = trace
    policy = FrequencyCapPolicy(min_period=params["min_period"], apps=apps)
    assert_same_transform(policy, packets, _context(packets, start, end))


@settings(max_examples=200, deadline=None)
@given(
    trace=traces(),
    apps=st.sampled_from(APP_SCOPES),
    min_payload=st.sampled_from((0, 40, 300, 1500, 10**6)),
)
def test_push_matches_the_loop(trace, apps, min_payload):
    packets, start, end, params = trace
    policy = PushConversionPolicy(
        min_payload_bytes=min_payload, burst_gap=params["burst_gap"], apps=apps
    )
    assert_same_transform(policy, packets, _context(packets, start, end))


@settings(max_examples=200, deadline=None)
@given(
    trace=traces(kill=True),
    apps=st.sampled_from(APP_SCOPES),
    idle=st.integers(1, 4),
)
def test_kill_matches_the_loop(trace, apps, idle):
    packets, start, end, _ = trace
    policy = KillIdlePolicy(idle_days=idle, apps=apps)
    assert_same_transform(policy, packets, _context(packets, start, end))


def _window_rounding_cases():
    """Two-packet ``(a, b, min_period)`` cases where ``a + min_period``
    rounds across the loop's test ``b - a >= min_period``: the search
    lands one row early (``ahead``) or one row late (``back``)."""
    ahead, back = [], []
    for a0, m0 in ((300.0, 1500.0), (1e6, 1800.1)):
        for k in range(1, 20):
            a = a0 + k * np.spacing(a0)
            for j in range(20):
                m = m0 + j * np.spacing(m0)
                s = a + m
                for b in (np.nextafter(s, -np.inf), s):
                    found, passes = b >= s, b - a >= m
                    if found != passes:
                        (ahead if found else back).append((a, float(b), m))
    return ahead, back


def test_frequency_cap_window_search_uses_the_subtraction():
    """The loop opens a window when ``t - last >= min_period``; a search
    for ``last + min_period`` misses by a row either way, and the
    transform must step back to the subtraction's answer."""
    ahead, back = _window_rounding_cases()
    assert ahead and back
    for a, b, m in ahead + back:
        data = np.zeros(2, dtype=PACKET_DTYPE)
        data["timestamp"] = (a, b)
        data["app"] = 1
        data["state"] = BG[0]
        packets = PacketArray(data)
        context = _context(packets, 0.0, b + 1.0)
        got = assert_same_transform(
            FrequencyCapPolicy(min_period=m), packets, context
        )
        # b - a > 30 s: b survives exactly when it opens a window.
        assert (got.packets is packets) == (b - a >= m)


def test_frequency_cap_refuses_a_nan_period():
    """No window opens under a NaN period (the loop dropped every
    background packet); the window chain has no such state, so NaN is
    refused like any other period that is not positive."""
    with pytest.raises(AnalysisError):
        FrequencyCapPolicy(min_period=float("nan"))
