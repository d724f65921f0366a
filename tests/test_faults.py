"""repro.faults + hardened TaskPool: plans, env hook, retry/timeout/
quarantine, crash recovery, close() safety.

The deterministic machinery itself is under test here (plans fire where
they say they fire, the env hook reaches pool workers, the pool's
failure policy does what its docstring promises); the end-to-end chaos
runs over the streaming pipeline live in ``test_chaos.py``.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro import faults
from repro.errors import FaultInjected, TaskFailure
from repro.faults import FaultPlan, FaultSpec
from repro.metrics import RunMetrics
from repro.parallel import TaskPool, map_tasks


@pytest.fixture(autouse=True)
def disarm():
    """No test leaks an armed plan into the next."""
    faults.uninstall()
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# Picklable tasks (pool workers import this module under spawn)
# ----------------------------------------------------------------------
def _double(x):
    return x * 2


class _PoisonTask:
    """Fails every time for one item, succeeds for the rest."""

    def __init__(self, poison):
        self.poison = poison

    def __call__(self, x):
        if x == self.poison:
            raise ValueError(f"poison item {x}")
        return x * 10


class _FlakyOnceTask:
    """Fails the first attempt per item, succeeds after (marker files)."""

    def __init__(self, root):
        self.root = str(root)

    def __call__(self, x):
        marker = os.path.join(self.root, f"seen_{x}")
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("1")
            raise ValueError(f"transient failure on {x}")
        return x + 100


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan
# ----------------------------------------------------------------------
def test_spec_validates_site_and_action():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultSpec("no.such.site", "crash")
    with pytest.raises(ValueError, match="not valid at site"):
        FaultSpec("io.packet_row", "crash")
    spec = FaultSpec("parallel.worker", "hang", hit=None, arg=2.0)
    assert spec.matches(1) and spec.matches(999)
    assert FaultSpec("parallel.worker", "raise", hit=3).matches(3)
    assert not FaultSpec("parallel.worker", "raise", hit=3).matches(2)


def test_plan_json_roundtrip_and_random_determinism():
    plan = FaultPlan.random(seed=7)
    again = FaultPlan.random(seed=7)
    assert plan.to_json() == again.to_json()
    restored = FaultPlan.from_json(plan.to_json())
    assert restored.specs == plan.specs
    assert restored.seed == 7
    # Sixty-four seeds must not all collapse onto one plan.
    assert len({FaultPlan.random(s).to_json() for s in range(64)}) > 8


def test_install_sets_and_uninstall_clears_env_hook():
    plan = FaultPlan([FaultSpec("attribute.task", "raise", hit=2)])
    faults.install(plan)
    assert os.environ.get(faults.ENV_VAR) == plan.to_json()
    assert faults.active_plan() is plan
    faults.uninstall()
    assert faults.ENV_VAR not in os.environ
    assert faults.active_plan() is None


def test_fresh_process_state_loads_plan_from_env():
    """What a spawn worker does: no install() ran in-process, the plan
    comes off the environment on the first fire."""
    plan = FaultPlan([FaultSpec("attribute.task", "raise", hit=1)])
    os.environ[faults.ENV_VAR] = plan.to_json()
    try:
        # uninstall() in the fixture reset _ENV_CHECKED, so this is a
        # fresh lookup, as in a newly spawned process.
        with pytest.raises(FaultInjected):
            faults.fire("attribute.task")
    finally:
        faults.uninstall()


def test_fire_is_noop_without_plan_and_counts_when_armed():
    assert faults.fire("parallel.worker") is None
    assert faults.fire_count("parallel.worker") == 0
    with faults.installed(FaultPlan([FaultSpec("attribute.task", "raise", hit=3)])):
        assert faults.fire("attribute.task") is None
        assert faults.fire("attribute.task") is None
        assert faults.fire_count("attribute.task") == 2
        with pytest.raises(FaultInjected, match="hit 3"):
            faults.fire("attribute.task")
        # Past its hit, the spec never strikes again.
        assert faults.fire("attribute.task") is None


def test_corrupt_row_and_truncated_stream_helpers():
    row = {"timestamp": "1.0", "size": "100", "direction": "up", "app": "a"}
    bad = faults.corrupt_row(row)
    assert bad is not row and row["size"] == "100"
    with pytest.raises(ValueError):
        int(bad["size"])
    import io

    stream = faults.TruncatedStream(io.BytesIO(b"x" * 100), budget=7)
    assert stream.read(5) == b"xxxxx"
    assert stream.read(100) == b"xx"
    assert stream.read(10) == b""


# ----------------------------------------------------------------------
# TaskFailure
# ----------------------------------------------------------------------
def test_task_failure_pickles_with_fields():
    failure = TaskFailure(4, "('u', 1)", 3, "crash", "worker died")
    clone = pickle.loads(pickle.dumps(failure))
    assert (clone.index, clone.item_repr, clone.attempts) == (4, "('u', 1)", 3)
    assert (clone.kind, clone.cause) == ("crash", "worker died")
    assert "after 3 attempt(s) [crash]" in str(clone)


# ----------------------------------------------------------------------
# Hardened TaskPool: retry / quarantine / timeout / crash
# ----------------------------------------------------------------------
def test_serial_map_retries_then_succeeds(tmp_path):
    metrics = RunMetrics()
    task = _FlakyOnceTask(tmp_path)
    with TaskPool(task, workers=1, retries=1, backoff=0.001, metrics=metrics) as pool:
        assert pool.map([1, 2, 3]) == [101, 102, 103]
    assert metrics.counter("faults.task_retries") == 3


def test_serial_map_without_retries_raises_original(tmp_path):
    with TaskPool(_FlakyOnceTask(tmp_path), workers=1) as pool:
        with pytest.raises(ValueError, match="transient failure"):
            pool.map([1, 2])


def test_pool_map_retries_flaky_task(tmp_path):
    with TaskPool(
        _FlakyOnceTask(tmp_path), workers=2, retries=1, backoff=0.001
    ) as pool:
        assert pool.map([1, 2, 3, 4]) == [101, 102, 103, 104]


def test_poison_task_quarantine_serial_and_pool(tmp_path):
    for workers in (1, 2):
        metrics = RunMetrics()
        with TaskPool(
            _PoisonTask(poison=2),
            workers=workers,
            retries=1,
            backoff=0.001,
            quarantine=True,
            metrics=metrics,
        ) as pool:
            results = pool.map([1, 2, 3, 4])
            assert results[0] == 10 and results[2] == 30 and results[3] == 40
            failure = results[1]
            assert isinstance(failure, TaskFailure)
            assert failure.index == 1 and failure.kind == "error"
            assert failure.attempts == 2
            assert "poison item 2" in failure.cause
            assert pool.failures == [failure]
        assert metrics.counter("faults.tasks_quarantined") == 1


def test_poison_task_without_quarantine_raises_original():
    with TaskPool(_PoisonTask(poison=3), workers=2) as pool:
        with pytest.raises(ValueError, match="poison item 3"):
            pool.map([1, 2, 3, 4])


def test_worker_segfault_raises_task_failure_promptly():
    """Satellite regression: a fork worker dying mid-chunk used to hang
    ``pool.map`` forever; it must now surface within the timeout as a
    structured TaskFailure."""
    plan = FaultPlan([FaultSpec("parallel.worker", "crash", hit=1)])
    metrics = RunMetrics()
    started = time.monotonic()
    with faults.installed(plan):
        with TaskPool(_double, workers=2, metrics=metrics) as pool:
            with pytest.raises(TaskFailure) as excinfo:
                pool.map([1, 2, 3, 4])
    assert time.monotonic() - started < 30.0
    assert excinfo.value.kind == "crash"
    assert metrics.counter("faults.worker_deaths") >= 1


def test_pool_rebuilds_after_crash_and_completes_with_retries():
    """Crash on each worker's second task: with retries the blamed item
    is recomputed on a fresh pool and the whole map still completes."""
    plan = FaultPlan([FaultSpec("parallel.worker", "crash", hit=2)])
    metrics = RunMetrics()
    with faults.installed(plan):
        # Wide retry budget: which item gets blamed per crash round is
        # scheduling-dependent, and sealing needs retries+1 blames on
        # the *same* item.
        with TaskPool(
            _double, workers=2, retries=5, backoff=0.001, metrics=metrics
        ) as pool:
            assert pool.map(list(range(8))) == [x * 2 for x in range(8)]
    assert metrics.counter("faults.worker_deaths") >= 1
    assert metrics.counter("faults.pool_rebuilds") >= 1
    assert metrics.counter("faults.task_retries") >= 1


def test_pool_usable_for_clean_map_after_crash_round():
    plan = FaultPlan([FaultSpec("parallel.worker", "crash", hit=1)])
    with TaskPool(_double, workers=2, quarantine=True) as pool:
        with faults.installed(plan):
            first = pool.map([1, 2, 3])
        assert any(isinstance(r, TaskFailure) for r in first)
        # Disarmed + rebuilt: the same pool object serves clean rounds.
        assert pool.map([5, 6, 7]) == [10, 12, 14]


def test_hung_task_times_out_and_fails():
    plan = FaultPlan([FaultSpec("parallel.worker", "hang", hit=1, arg=60.0)])
    metrics = RunMetrics()
    started = time.monotonic()
    with faults.installed(plan):
        with TaskPool(
            _double, workers=2, task_timeout=0.75, metrics=metrics
        ) as pool:
            with pytest.raises(TaskFailure) as excinfo:
                pool.map([1, 2, 3, 4])
    assert time.monotonic() - started < 20.0
    assert excinfo.value.kind == "timeout"
    assert metrics.counter("faults.task_timeouts") >= 1


def test_single_item_round_still_enforces_timeout():
    """Review regression: a one-item round must go through the pool
    whenever workers allow one — a streaming run's final rounds have a
    single active user, and a hang there used to bypass the timeout by
    taking the serial in-process path."""
    plan = FaultPlan([FaultSpec("parallel.worker", "hang", hit=1, arg=60.0)])
    started = time.monotonic()
    with faults.installed(plan):
        with TaskPool(_double, workers=2, task_timeout=0.75) as pool:
            with pytest.raises(TaskFailure) as excinfo:
                pool.map([7])
    assert time.monotonic() - started < 20.0
    assert excinfo.value.kind == "timeout"


def test_env_hook_reaches_spawn_workers():
    """The plan must cross into workers that share no memory with this
    process — JSON via the environment, read on first fire."""
    plan = FaultPlan([FaultSpec("parallel.worker", "raise", hit=None)])
    with faults.installed(plan):
        with TaskPool(
            _double, workers=2, quarantine=True, start_method="spawn"
        ) as pool:
            results = pool.map([1, 2, 3])
    assert all(isinstance(r, TaskFailure) for r in results)
    assert all("FaultInjected" in r.cause for r in results)


def test_injected_raise_recovers_with_retries():
    """hit=1 per process: each worker throws once, retries land on a
    worker that already burned its fault — identical results, no abort."""
    plan = FaultPlan([FaultSpec("parallel.worker", "raise", hit=1)])
    with faults.installed(plan):
        with TaskPool(_double, workers=2, retries=3, backoff=0.001) as pool:
            assert pool.map(list(range(6))) == [x * 2 for x in range(6)]


# ----------------------------------------------------------------------
# close() safety (satellite: leak on failed __init__, __del__)
# ----------------------------------------------------------------------
def test_init_failure_leaves_close_and_del_safe():
    with pytest.raises(ValueError, match="workers must be"):
        TaskPool(_double, workers=-2)
    # A half-built instance (resolve_workers raised before _exec was
    # assigned in a subclass scenario) must still close cleanly.
    husk = TaskPool.__new__(TaskPool)
    husk.close()
    husk.__del__()


def test_invalid_policy_arguments_rejected_without_leak():
    with pytest.raises(ValueError, match="retries"):
        TaskPool(_double, workers=2, retries=-1)
    with pytest.raises(ValueError, match="task_timeout"):
        TaskPool(_double, workers=2, task_timeout=0.0)


def test_close_is_idempotent_and_del_safe_after_use():
    pool = TaskPool(_double, workers=2)
    assert pool.map([1, 2, 3]) == [2, 4, 6]
    assert pool._exec is not None
    pool.close()
    assert pool._exec is None
    pool.close()
    pool.__del__()
    # And a never-started pool closes fine too.
    TaskPool(_double, workers=2).close()


# ----------------------------------------------------------------------
# map_tasks
# ----------------------------------------------------------------------
def test_map_tasks_serial_and_parallel_agree():
    items = list(range(10))
    assert (
        map_tasks(_double, items, workers=1)
        == map_tasks(_double, items, workers=3)
        == [x * 2 for x in items]
    )
