"""Run metrics: wall time, per-stage timings and counters.

One :class:`RunMetrics` object travels through a run — the CLI creates
one per invocation and hands it to :class:`~repro.core.accounting.
StudyEnergy`; library users can do the same::

    from repro import RunMetrics, StudyEnergy

    metrics = RunMetrics()
    study = StudyEnergy(dataset, metrics=metrics)
    study.total_energy
    print(metrics.to_json())

Stages are cumulative named timers (``with metrics.stage("attribute")``)
and counters are cumulative named tallies (``metrics.count("packets",
n)``). :meth:`as_dict` adds derived throughput rates for the well-known
pairs (attributed packets per second of attribution time, generated
packets per second of generation time) so consumers never recompute
them inconsistently. The CLI's ``--metrics-json FILE`` flag writes this
dictionary at the end of the command (``-`` for stdout).

Recording is thread-safe: ``repro serve``'s handler threads and the
shard coordinator's per-worker threads share one object, so every
update and the :meth:`~RunMetrics.as_dict` snapshot take its lock.
Worker *processes* never receive the object (a lock cannot be
pickled); they return :meth:`~RunMetrics.as_dict` payloads for
:meth:`~RunMetrics.absorb`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

#: (rate name, counter, stage) triples materialised by :meth:`RunMetrics.as_dict`.
DERIVED_RATES = (
    ("attribute_packets_per_s", "attribution.packets", "attribute"),
    ("generate_packets_per_s", "generation.packets", "generate"),
    ("ingest_packets_per_s", "stream.packets", "stream.attribute"),
    ("serve_requests_per_s", "serve.requests", "serve.request"),
    ("shard_packets_per_s", "stream.packets", "shard.execute"),
    ("follow_packets_per_s", "follow.packets", "follow.attribute"),
    ("transport_bytes_down_per_s", "transport.bytes_down", "transport.download"),
)


class RunMetrics:
    """Cumulative stage timings and counters for one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        self._stage_seconds: Dict[str, float] = {}
        self._stage_calls: Dict[str, int] = {}
        self._counters: Dict[str, int] = {}
        self._samples: Dict[str, List[str]] = {}
        self._gauges: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a block under ``name``; nested/repeated calls accumulate."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self._add_stage(name, elapsed, 1)

    def _add_stage(self, name: str, seconds: float, calls: int) -> None:
        # Callers hold ``self._lock``.
        self._stage_seconds[name] = self._stage_seconds.get(name, 0.0) + seconds
        self._stage_calls[name] = self._stage_calls.get(name, 0) + calls

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def sample(self, name: str, value: str, limit: int = 5) -> None:
        """Keep the first ``limit`` example strings under ``name``.

        For rare events worth quoting, not counting — e.g. the first few
        quarantined trace rows. Values past ``limit`` are dropped; pair
        with :meth:`count` for the full tally.
        """
        with self._lock:
            self._add_sample(name, str(value), limit)

    def _add_sample(self, name: str, value: str, limit: int = 5) -> None:
        # Callers hold ``self._lock``.
        bucket = self._samples.setdefault(name, [])
        if len(bucket) < limit:
            bucket.append(value)

    def gauge(self, name: str, value: float) -> None:
        """Record an instantaneous level under ``name``.

        Unlike a counter, a gauge is a *current* value — queue depth,
        lag, resident set — so the report keeps both the last reading
        and the worst (maximum) one. ``repro follow`` uses this for
        ``follow.lag_chunks``, the pending-chunk backlog after each
        poll.
        """
        value = float(value)
        with self._lock:
            _, worst = self._gauges.get(name, (0.0, float("-inf")))
            self._gauges[name] = (value, max(worst, value))

    def gauge_last(self, name: str) -> Optional[float]:
        """Last reading of gauge ``name`` (None if never set)."""
        entry = self._gauges.get(name)
        return None if entry is None else entry[0]

    def gauge_max(self, name: str) -> Optional[float]:
        """Worst (maximum) reading of gauge ``name`` (None if never set)."""
        entry = self._gauges.get(name)
        return None if entry is None else entry[1]

    def absorb(self, payload: dict) -> None:
        """Merge another run's :meth:`as_dict` report into this one.

        The shard executors run in worker processes, each with a
        private ``RunMetrics``; their reports ride back on the result
        and the parent folds them in here, so ``stream.*`` counters and
        stage seconds reflect the whole sharded run. Stage seconds
        *sum* (they are cumulative CPU-side effort, not wall clock —
        with N parallel shards the sum exceeds elapsed time by design),
        counters add, and samples top up to the usual limit.
        """
        with self._lock:
            for name, entry in payload.get("stages", {}).items():
                self._add_stage(name, float(entry["seconds"]), int(entry["calls"]))
            for name, value in payload.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, values in payload.get("samples", {}).items():
                for value in values:
                    self._add_sample(name, str(value))
            for name, entry in payload.get("gauges", {}).items():
                last, worst = self._gauges.get(name, (0.0, float("-inf")))
                self._gauges[name] = (
                    float(entry["last"]),
                    max(worst, float(entry["max"])),
                )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def wall_time(self) -> float:
        """Seconds since this object was created."""
        return time.perf_counter() - self._start

    def stage_seconds(self, name: str) -> float:
        """Total seconds recorded under stage ``name`` (0.0 if never run)."""
        return self._stage_seconds.get(name, 0.0)

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never counted)."""
        return self._counters.get(name, 0)

    def samples(self, name: str) -> List[str]:
        """The example strings kept under ``name`` (empty if none)."""
        return list(self._samples.get(name, []))

    def rate(self, counter: str, stage: str) -> Optional[float]:
        """``counter / stage`` as events per second, if both were recorded."""
        seconds = self._stage_seconds.get(stage)
        events = self._counters.get(counter)
        if not seconds or events is None:
            return None
        return events / seconds

    def as_dict(self) -> dict:
        """The full report: wall time, stages, counters, derived rates."""
        with self._lock:
            derived = {}
            for name, counter, stage in DERIVED_RATES:
                value = self.rate(counter, stage)
                if value is not None:
                    derived[name] = round(value, 3)
            return {
                "wall_time_s": round(self.wall_time, 6),
                "stages": {
                    name: {
                        "seconds": round(seconds, 6),
                        "calls": self._stage_calls[name],
                    }
                    for name, seconds in sorted(self._stage_seconds.items())
                },
                "counters": dict(sorted(self._counters.items())),
                "samples": {
                    name: list(values)
                    for name, values in sorted(self._samples.items())
                },
                "gauges": {
                    name: {"last": last, "max": worst}
                    for name, (last, worst) in sorted(self._gauges.items())
                },
                "derived": derived,
            }

    def to_json(self, indent: int = 2) -> str:
        """:meth:`as_dict` as a JSON string."""
        return json.dumps(self.as_dict(), indent=indent)

    def write_json(self, path: Union[str, Path]) -> None:
        """Write the report to ``path``; ``-`` prints to stdout."""
        payload = self.to_json()
        if str(path) == "-":
            print(payload)
        else:
            Path(path).write_text(payload + "\n")

    def __repr__(self) -> str:
        return (
            f"RunMetrics(wall={self.wall_time:.3f}s, "
            f"stages={sorted(self._stage_seconds)}, "
            f"counters={sorted(self._counters)})"
        )
