"""In-memory spans around the pipeline's public calls.

A span records a name, start, end, parent span and op id (one id per
job rep or per request). Names are ``<layer>.<what>``; the layer is the
``repro`` package the call belongs to (``workload``, ``trace``,
``stream``, ``shard``, ``radio``, ``core``, ``policy``, ``store``, and
``serve`` for ``repro.store.server``), so per-layer totals are a prefix
sum.

A span may also carry ``stages``: seconds that the program's own
:class:`repro.metrics.RunMetrics` timed *inside* the span (for example
``stream.read`` and ``stream.attribute`` inside one
``StreamIngestor.run``). Only leaf stages that never nest are attached,
so they count like child spans whose position is unknown.

Self time is the span's duration minus the part of it that its child
spans cover (the union of their intervals, clipped to the span) minus
its stages. Under that rule a job span's self time is exactly the time
no traced call was running: ``job.unaccounted_s``.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    """One timed call. ``stages`` maps program stage names to seconds."""

    __slots__ = ("id", "name", "op", "parent", "start", "end", "stages")

    def __init__(self, span_id: int, name: str, op, parent: Optional[int]):
        self.id = span_id
        self.name = name
        self.op = op
        self.parent = parent
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.stages: Dict[str, float] = {}

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "stages": dict(self.stages),
        }


class _Untraced:
    """What ``span()`` yields when tracing is off: a span with no id."""

    id = None


_UNTRACED = _Untraced()


class Tracer:
    """Collects spans in memory; ``enabled=False`` makes every call free.

    The current span is tracked per thread, so spans opened by the load
    generator's worker threads nest under whatever ``parent`` they are
    given explicitly and never under another thread's span.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op=None, parent: Optional[Span] = None) -> Iterator:
        """Time the block as span ``name``.

        It nests under ``parent`` when given (a span opened on another
        thread), else under this thread's current span, and inherits
        that span's op id unless ``op`` is given.
        """
        if not self.enabled:
            yield _UNTRACED
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if op is None and parent is not None:
            op = parent.op
        with self._lock:
            record = Span(
                next(self._ids), name, op, parent.id if parent is not None else None
            )
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def as_list(self) -> List[dict]:
        return [span.as_dict() for span in self.spans]


def attach_stages(span, report: dict, names) -> None:
    """Copy the named stage seconds of a ``RunMetrics.as_dict()`` report
    onto ``span`` (a no-op on an untraced span)."""
    if span.id is None:
        return
    stages = report.get("stages", {})
    for name in names:
        if name in stages:
            span.stages[name] = float(stages[name]["seconds"])


# ----------------------------------------------------------------------
# Analysis of recorded spans (plain dicts, as written to the trace file)
# ----------------------------------------------------------------------
def _covered(children: List[dict], start: float, end: float) -> float:
    """Length of the union of the children's intervals inside [start, end]."""
    intervals = sorted(
        (max(c["start"], start), min(c["end"], end)) for c in children
    )
    total = 0.0
    cur_start = cur_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id → duration minus child coverage minus attached stages."""
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = _covered(children.get(span["id"], []), span["start"], span["end"])
        out[span["id"]] = (
            span["end"] - span["start"] - covered - sum(span["stages"].values())
        )
    return out


def tree_errors(spans: List[dict], slack: float = 1e-6) -> List[str]:
    """Structural defects: unknown parents, children outside their parent,
    stages longer than the time their span leaves to them."""
    by_id = {span["id"]: span for span in spans}
    errors = []
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            errors.append(f"span {span['id']} ({span['name']}) never closed")
            continue
        parent = span["parent"]
        if parent is None:
            continue
        if parent not in by_id:
            errors.append(f"span {span['id']} has unknown parent {parent}")
            continue
        outer = by_id[parent]
        if span["start"] < outer["start"] - slack or span["end"] > outer["end"] + slack:
            errors.append(
                f"span {span['id']} ({span['name']}) lies outside its parent "
                f"{parent} ({outer['name']})"
            )
    for span_id, own in self_times(spans).items():
        if own < -slack:
            errors.append(
                f"span {span_id} ({by_id[span_id]['name']}) has negative self "
                f"time {own:.6f}s: its stages exceed the time its children leave"
            )
    return errors


def subtree(spans: List[dict], root: int) -> List[dict]:
    """The span ``root`` and every span below it."""
    members = {root}
    out = []
    for span in spans:  # recorded in open order: parents come first
        if span["id"] == root or span["parent"] in members:
            members.add(span["id"])
            out.append(span)
    return out


def layer_seconds(spans: List[dict]) -> Dict[str, float]:
    """Self seconds per span name and per attached stage name.

    The job span's own self time is reported as ``job.unaccounted``;
    everything else under its own name, so a caller can group by layer
    prefix or keep the finer names.
    """
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        name = "job.unaccounted" if span["name"] == "job" else span["name"]
        totals[name] = totals.get(name, 0.0) + own[span["id"]]
        for stage, seconds in span["stages"].items():
            totals[stage] = totals.get(stage, 0.0) + seconds
    return totals
