"""Shared multiprocessing helpers, hardened against worker failure.

The workload generator fans per-user generation out over a process
pool, and the shard executors run whole shards of users, one process
each. Batch attribution and streaming ingestion stay in process:
shipping a user's result, or a chunk and its carry, costs about as
much as computing it. The selection logic (how
many workers make sense, which start method to use, when a pool is not
worth its overhead) lives here once — and so does the failure handling,
because on a 22-month ingestion job workers *do* die, tasks *do* hang
and inputs *do* arrive poisoned.

:class:`TaskPool` runs on :class:`concurrent.futures.
ProcessPoolExecutor` rather than ``multiprocessing.Pool``: when a
worker dies mid-task the executor marks the pool broken and fails the
pending futures promptly, where ``Pool.map`` blocks forever. On top of
that the pool adds per-task timeouts, bounded retry with exponential
backoff, poison-task quarantine and a clean pool rebuild after a
worker death — every failure surfacing as a structured
:class:`~repro.errors.TaskFailure` instead of a hung run. Retried tasks
must be pure functions of their item (every task in this library is),
so a retry changes nothing but wall time: grouped totals stay
bit-identical.

Tasks handed to :func:`map_tasks` must be picklable callables (see
``workload.generator._GenerateUserTask``). The task may carry bulky
shared state: it reaches workers copy-on-write under ``fork`` and is
shipped once per worker (via the pool initializer) under ``spawn`` —
never once per item, so per-item payloads stay small.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, List, Optional, Sequence, TypeVar, Union

from repro import faults
from repro.errors import TaskFailure
from repro.metrics import RunMetrics

T = TypeVar("T")
R = TypeVar("R")

#: Cap on one exponential-backoff sleep; retries are for transient
#: glitches, not for outwaiting a broken environment.
MAX_BACKOFF_S = 1.0


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request.

    ``None`` or ``0`` means "one per available CPU"; negative counts are
    an error surfaced as ``ValueError``; anything else passes through.
    """
    if workers is None or workers == 0:
        return available_cpus()
    if workers < 0:
        raise ValueError(f"workers must be >= 0: {workers}")
    return workers


def preferred_start_method() -> str:
    """The pool start method used throughout the library.

    ``fork`` keeps worker startup cheap and works from any entry point
    (REPL, piped scripts); platforms without it fall back to ``spawn``.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


#: Task shared with pool workers. Set once per worker by the pool
#: initializer: inherited by reference under ``fork`` (zero pickling,
#: however large the task's state), shipped once per worker under
#: ``spawn`` — never once per map chunk.
_POOL_TASK: Optional[Callable] = None


def _set_pool_task(task: Callable) -> None:
    global _POOL_TASK
    _POOL_TASK = task


def _call_pool_task(item):
    # The fault site lives here, in the worker, not in the serial path:
    # an injected "crash" must kill a child, never the parent run.
    faults.fire("parallel.worker")
    return _POOL_TASK(item)


def _short_repr(item, limit: int = 120) -> str:
    text = repr(item)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


class RetryScheduler:
    """Retry/backoff/quarantine policy for a round of keyed work items.

    Extracted from :class:`TaskPool` so any executor — the in-process
    pool here or a remote transport (:mod:`repro.shard.coordinator`) —
    applies the *same* failure policy with the same metrics vocabulary:
    ``faults.task_retries`` per granted retry, ``faults.tasks_quarantined``
    per sealed failure. The scheduler knows nothing about *how* work
    runs; it only answers "this attempt at item ``index`` failed — retry,
    quarantine, or raise?".

    Per failed attempt, :meth:`fail` increments the item's attempt count
    and either sleeps the exponential backoff and returns ``None`` (a
    retry is owed), returns the sealed :class:`TaskFailure` (quarantine
    mode — also appended to :attr:`failures`), or raises (``original``
    when given, else the :class:`TaskFailure`). Attempt counts live for
    the scheduler's lifetime: create one per round to reset them, and
    share a ``failures`` list across rounds to accumulate quarantined
    items the way :class:`TaskPool` does.
    """

    def __init__(
        self,
        *,
        retries: int = 0,
        backoff: float = 0.05,
        quarantine: bool = False,
        metrics: Optional[RunMetrics] = None,
        failures: Optional[List[TaskFailure]] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0: {retries}")
        self.retries = retries
        self.backoff = backoff
        self.quarantine = quarantine
        self.metrics = metrics
        #: Quarantined failures, in the order they were sealed. Callers
        #: may pass a shared list to accumulate across rounds.
        self.failures: List[TaskFailure] = (
            failures if failures is not None else []
        )
        self._attempts: dict = {}

    def attempts(self, index) -> int:
        """Failed attempts recorded against item ``index`` so far."""
        return self._attempts.get(index, 0)

    def should_retry(self, attempts: int) -> bool:
        """Grant (and pay for) a retry after ``attempts`` failures.

        Granting counts ``faults.task_retries`` and sleeps the
        exponential backoff (``backoff * 2**(attempts-1)``, capped at
        :data:`MAX_BACKOFF_S`) before returning ``True``.
        """
        if attempts > self.retries:
            return False
        self._count("faults.task_retries")
        time.sleep(min(self.backoff * 2 ** (attempts - 1), MAX_BACKOFF_S))
        return True

    def fail(
        self,
        index,
        item_repr: str,
        kind: str,
        cause: str,
        original: Optional[BaseException] = None,
    ) -> Optional[TaskFailure]:
        """One failed attempt at item ``index``.

        Returns ``None`` to keep the item pending (a retry is owed), or
        the sealed quarantined :class:`TaskFailure`. Raises when the
        budget is spent and quarantine is off.
        """
        attempts = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempts
        if self.should_retry(attempts):
            return None
        failure = TaskFailure(index, item_repr, attempts, kind, cause)
        if self.quarantine:
            self.quarantine_failure(failure)
            return failure
        if original is not None:
            raise original
        raise failure

    def quarantine_failure(self, failure: TaskFailure) -> None:
        self.failures.append(failure)
        self._count("faults.tasks_quarantined")

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)


class TaskPool:
    """A process pool that survives many :meth:`map` rounds — and its
    own workers' failures.

    :func:`map_tasks` pays pool startup on every call; ``TaskPool``
    starts the workers once and reuses them across :meth:`map` rounds,
    and reports each slot as it settles, which is what the shard
    executors need. Unlike :func:`map_tasks`, per-round data must ride
    on the **items** (the task is shipped once, at pool creation): the
    shard executor's items are shard indices. With ``workers`` resolved
    to 1 the pool is never created and every map runs in process —
    where ``task_timeout`` cannot be enforced and a crash is the
    caller's crash, since both protections need a process boundary;
    with ``workers > 1`` every round, even a one-item round, goes
    through the pool so the policy always holds.

    Failure policy, applied per item:

    * a task raising an exception is retried up to ``retries`` times
      with exponential backoff (``backoff * 2**(attempt-1)`` seconds,
      capped at :data:`MAX_BACKOFF_S`);
    * a worker death (segfault, ``os._exit``, OOM kill) fails the item
      being waited on, kills and rebuilds the pool, and resubmits every
      unfinished item — surviving items are unaffected;
    * with ``task_timeout`` set, waiting longer than that on one item
      counts as a failure of that item and also rebuilds the pool (the
      hung worker cannot be recovered, only killed);
    * an item that exhausts its attempts becomes a
      :class:`~repro.errors.TaskFailure`. With ``quarantine=False``
      (default) it aborts the map — re-raising the task's own exception
      where one exists, raising the ``TaskFailure`` for crashes and
      timeouts. With ``quarantine=True`` the failure is appended to
      :attr:`failures`, returned in the result slot, and the map
      completes.

    Because tasks are pure, none of this changes results: a map that
    completes is bit-identical to one that never saw a failure.

    Use as a context manager, or call :meth:`close` explicitly;
    ``close()`` is also safe from ``__del__`` even when ``__init__``
    itself raised.
    """

    #: Class-level fallback so :meth:`close` (and ``__del__``) are safe
    #: even when ``__init__`` raised before any attribute was assigned.
    _exec: Optional[ProcessPoolExecutor] = None

    def __init__(
        self,
        task: Callable[[T], R],
        workers: Optional[int] = 1,
        *,
        retries: int = 0,
        task_timeout: Optional[float] = None,
        backoff: float = 0.05,
        quarantine: bool = False,
        metrics: Optional[RunMetrics] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self._exec = None  # first, so close() works however far we get
        if retries < 0:
            raise ValueError(f"retries must be >= 0: {retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0: {task_timeout}")
        self.task = task
        self.workers = resolve_workers(workers)
        self.retries = retries
        self.task_timeout = task_timeout
        self.backoff = backoff
        self.quarantine = quarantine
        self.metrics = metrics
        self.start_method = start_method or preferred_start_method()
        #: Quarantined failures, in the order they were sealed,
        #: accumulated across :meth:`map` rounds.
        self.failures: List[TaskFailure] = []

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._exec is None:
            self._exec = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=_set_pool_task,
                initargs=(self.task,),
            )
        return self._exec

    def _kill_pool(self) -> None:
        """Tear the pool down hard: hung or dying workers get SIGKILL.

        A plain ``shutdown`` would join workers that will never return;
        after this the next :meth:`map` round rebuilds a fresh pool.
        """
        executor, self._exec = self._exec, None
        if executor is None:
            return
        # ``_processes`` is ProcessPoolExecutor private API (stable
        # across supported CPythons, but it can be None or mutate while
        # the pool is breaking), so read it defensively; a kill() that
        # loses the race just means the worker is already dead, which
        # is the goal.
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):
                continue
        executor.shutdown(wait=False, cancel_futures=True)
        self._count("faults.pool_rebuilds")

    def close(self) -> None:
        """Shut the workers down (idempotent, ``__del__``-safe)."""
        executor = getattr(self, "_exec", None)
        self._exec = None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map(
        self,
        items: Sequence[T],
        on_result: Optional[Callable[[int, Union[R, TaskFailure]], None]] = None,
    ) -> List[Union[R, TaskFailure]]:
        """``[task(item) for item in items]``, order-preserving.

        Failed items follow the pool's retry/quarantine policy; in
        quarantine mode a failed slot holds its :class:`TaskFailure`.
        ``on_result(index, result)`` is invoked in the parent as each
        slot settles — including sealed quarantine failures, but not
        slots still owed a retry — so long fan-outs (shard executors)
        can report progress and absorb worker metrics without waiting
        for the whole round.
        """
        items = list(items)
        if self.workers <= 1:
            return self._map_serial(items, on_result)
        # Even a one-item round goes through the pool: the failure
        # policy (task_timeout, crash isolation) must hold for a lone
        # shard too.
        return self._map_pool(items, on_result)

    def _map_serial(
        self,
        items: Sequence[T],
        on_result: Optional[Callable] = None,
    ) -> List[Union[R, TaskFailure]]:
        scheduler = self._scheduler()
        results: List[Union[R, TaskFailure]] = []
        for index, item in enumerate(items):
            while True:
                try:
                    results.append(self.task(item))
                    break
                except Exception as exc:
                    sealed = scheduler.fail(
                        index,
                        _short_repr(item),
                        "error",
                        repr(exc),
                        original=exc,
                    )
                    if sealed is None:
                        continue
                    results.append(sealed)
                    break
            if on_result is not None:
                on_result(index, results[-1])
        return results

    def _map_pool(
        self,
        items: Sequence[T],
        on_result: Optional[Callable] = None,
    ) -> List[Union[R, TaskFailure]]:
        scheduler = self._scheduler()
        results: List[Union[R, TaskFailure]] = [None] * len(items)
        pending = set(range(len(items)))
        while pending:
            executor = self._ensure_pool()
            order = sorted(pending)
            try:
                futures = {
                    index: executor.submit(_call_pool_task, items[index])
                    for index in order
                }
            except BrokenExecutor as exc:
                # A worker died between rounds (or mid-submission), so
                # the pool refused the submit. Nothing from this round
                # completed; blame the first pending item — like the
                # wait-time crash below, the blame is arbitrary but
                # bounded: under retry it is recomputed, and repeated
                # submit-time deaths seal it instead of looping forever.
                self._count("faults.worker_deaths")
                self._kill_pool()
                sealed = scheduler.fail(
                    order[0],
                    _short_repr(items[order[0]]),
                    "crash",
                    f"worker died before the round started ({exc!r})",
                )
                if sealed is not None:
                    results[order[0]] = sealed
                    pending.discard(order[0])
                    if on_result is not None:
                        on_result(order[0], sealed)
                continue
            rebuilt = False
            for index in order:
                try:
                    value = futures[index].result(timeout=self.task_timeout)
                except (TimeoutError, FuturesTimeoutError):
                    # Future.result raises concurrent.futures.TimeoutError,
                    # which is the builtin only since 3.11; catch both so
                    # 3.9/3.10 timeouts don't fall into the error branch
                    # (which would leave the hung worker alive).
                    self._count("faults.task_timeouts")
                    # Kill before judging the failure: the worker is
                    # wedged whatever the verdict, and if _fail raises
                    # (no quarantine) a later close() must not block
                    # joining a worker that will never return.
                    self._kill_pool()
                    rebuilt = True
                    sealed = scheduler.fail(
                        index,
                        _short_repr(items[index]),
                        "timeout",
                        f"no result within {self.task_timeout}s",
                    )
                except BrokenExecutor as exc:
                    # A worker died. The executor cannot say on which
                    # item, so blame the one being waited on: under
                    # retry it is recomputed anyway, and a true poison
                    # item keeps getting blamed until sealed. Kill
                    # first, for the same reason as the timeout branch.
                    self._count("faults.worker_deaths")
                    self._kill_pool()
                    rebuilt = True
                    sealed = scheduler.fail(
                        index,
                        _short_repr(items[index]),
                        "crash",
                        f"worker died ({exc!r})",
                    )
                except Exception as exc:
                    sealed = scheduler.fail(
                        index,
                        _short_repr(items[index]),
                        "error",
                        repr(exc),
                        original=exc,
                    )
                else:
                    results[index] = value
                    pending.discard(index)
                    if on_result is not None:
                        on_result(index, value)
                    continue
                if sealed is not None:
                    results[index] = sealed
                    pending.discard(index)
                    if on_result is not None:
                        on_result(index, sealed)
                if rebuilt:
                    # This round's remaining futures died with the
                    # pool; the while loop resubmits what's pending.
                    break
        return results

    # ------------------------------------------------------------------
    # Failure policy
    # ------------------------------------------------------------------
    def _scheduler(self) -> RetryScheduler:
        """A fresh :class:`RetryScheduler` for one map round.

        Attempt counts reset per round; quarantined failures accumulate
        across rounds through the shared :attr:`failures` list.
        """
        return RetryScheduler(
            retries=self.retries,
            backoff=self.backoff,
            quarantine=self.quarantine,
            metrics=self.metrics,
            failures=self.failures,
        )

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)


def map_tasks(
    task: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = 1,
) -> List[R]:
    """``[task(item) for item in items]``, optionally across processes.

    Order is preserved. With ``workers`` resolved to 1 — or fewer than
    two items, where a pool can only add overhead — the map runs in
    process, so callers need no serial/parallel branch of their own.
    A failed item's error propagates; nothing is retried.

    Put the bulky shared state (packet arrays, configs) on the *task*
    and keep ``items`` small (ids): the task crosses into workers once
    per pool — for free under ``fork`` — while every item crosses a
    pipe per call.
    """
    items = list(items)
    resolved = min(resolve_workers(workers), max(len(items), 1))
    with TaskPool(task, resolved) as pool:
        return pool.map(items)
