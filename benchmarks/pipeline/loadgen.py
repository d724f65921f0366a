"""The serve-open load generator: a request mix, an open-loop schedule
and closed-loop bursts, over at most two client threads.

Open loop: request ``i`` is *due* at ``t0 + i / rate`` whatever the
server is doing, the way independent users arrive. Its latency is
measured from that due time, so when a response stalls, every request
queued behind it is charged the wait (no coordinated omission). How
late the generator started each request (``start - due``) is reported
separately, so a generator that cannot keep up is visible.

Closed loop: each worker sends its next request as soon as its previous
one completes; the due time is the moment the worker takes the request.
"""

from __future__ import annotations

import http.client
import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: The servable artefacts and their routes (docs/SERVING.md).
ROUTES = {
    "fig1": "/figures/fig1",
    "fig2": "/figures/fig2",
    "fig3": "/figures/fig3",
    "table1": "/tables/table1",
    "headlines": "/headlines",
}

#: Share of plain reads that revalidate with ``If-None-Match``.
CONDITIONAL_SHARE = 0.3

#: The artefact a cold op invalidates and re-fetches: Table 1 is the
#: most expensive render, the one a live publisher pays most for.
COLD_ANALYSIS = "table1"


@dataclass(frozen=True)
class Op:
    """One request of the mix: ``get``, ``cond`` (If-None-Match) or
    ``cold`` (invalidate the stored artefact, then GET it)."""

    index: int
    kind: str
    analysis: str


@dataclass
class Outcome:
    """One sent op: when it was due, when it started and ended, and what
    ``send`` returned (or the exception it raised, as text)."""

    op: Op
    due: float
    start: float
    end: float
    value: object = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def lateness(self) -> float:
        return self.start - self.due


def build_mix(n: int, cold_every: int, seed: int) -> List[Op]:
    """``n`` ops: reads round-robin over the artefacts, 30% conditional,
    and every ``cold_every``-th op a cold refresh (0 disables)."""
    rng = random.Random(seed)
    names = itertools.cycle(ROUTES)
    ops = []
    for i in range(n):
        if cold_every and i % cold_every == cold_every - 1:
            ops.append(Op(i, "cold", COLD_ANALYSIS))
        else:
            kind = "cond" if rng.random() < CONDITIONAL_SHARE else "get"
            ops.append(Op(i, kind, next(names)))
    return ops


def run_ops(
    ops: Sequence[Op],
    send: Callable[[Op], object],
    *,
    workers: int = 2,
    rate: Optional[float] = None,
) -> Tuple[List[Outcome], float]:
    """Send every op with ``workers`` threads; return outcomes and wall.

    With ``rate`` the schedule is open-loop (op ``i`` due at
    ``t0 + i / rate``); without it, closed-loop. Workers take ops in
    order from one shared cursor, so a worker stuck on a slow response
    leaves the later ops to the others — and once all are stuck, the
    ops wait, and their latency from the due time shows it.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(ops)
    cursor = itertools.count()
    t0 = time.perf_counter()

    def worker() -> None:
        while True:
            i = next(cursor)  # atomic under the GIL
            if i >= len(ops):
                return
            if rate is None:
                due = time.perf_counter()
            else:
                due = t0 + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            start = time.perf_counter()
            try:
                value, error = send(ops[i]), None
            except Exception as exc:  # a failed request is a result
                value, error = None, f"{type(exc).__name__}: {exc}"
            outcomes[i] = Outcome(ops[i], due, start, time.perf_counter(), value, error)

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return list(outcomes), time.perf_counter() - t0


def http_get(
    host: str, port: int, path: str, etag: Optional[str] = None, timeout: float = 10.0
) -> Tuple[int, Optional[str], bytes]:
    """One GET on a fresh connection (the server closes every response).
    Returns ``(status, ETag header, body)``."""
    headers = {"If-None-Match": etag} if etag is not None else {}
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path, headers=headers)
        response = conn.getresponse()
        return response.status, response.getheader("ETag"), response.read()
    finally:
        conn.close()


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
