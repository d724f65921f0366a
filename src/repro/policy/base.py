"""The counterfactual-policy protocol.

A :class:`CounterfactualPolicy` is a named, frozen bundle of parameters
with one behaviour: ``transform(packets, context)`` returns the packet
timeline the policy would have produced — packets dropped (kill, doze,
frequency caps, push conversion) or shifted (batching, coalescing,
delay-tolerant scheduling). The engine (:mod:`repro.policy.engine`)
re-runs full radio attribution on the transformed trace, so tail and
promotion effects across concurrent apps are handled honestly — the
same discipline the paper's §5 kill simulation uses.

Policies never mutate the input array: a transform either returns the
*original* ``PacketArray`` object (nothing to do — the engine then
reuses the already-attributed result, making no-op parameters exactly
free) or a new, time-sorted array.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.trace.arrays import PacketArray
from repro.trace.index import TraceIndex


@dataclass(frozen=True)
class PolicyContext:
    """Everything a transform may consult besides the packets.

    ``index`` is the trace's shared :class:`TraceIndex` (app groupings,
    state masks, and — when built by ``UserTrace.index`` — the event
    log); ``start``/``end`` bound the observation window; ``id_of``
    resolves app package names to numeric ids.
    """

    index: TraceIndex
    start: float
    end: float
    id_of: "callable"

    def resolve_apps(
        self, apps: Optional[Iterable[str]]
    ) -> Optional[Tuple[int, ...]]:
        """App names -> ids; ``None`` means "every app"."""
        if apps is None:
            return None
        return tuple(self.id_of(a) for a in apps)

    def candidate_apps(self, apps: Optional[Iterable[str]]) -> Tuple[int, ...]:
        """The app ids a policy scoped by ``apps`` should touch."""
        resolved = self.resolve_apps(apps)
        if resolved is None:
            return tuple(int(a) for a in self.index.app_ids)
        return resolved

    def background_rows(
        self, apps: Optional[Iterable[str]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The candidate apps' background packet positions, stacked in
        candidate order by :func:`stacked_rows`."""
        return stacked_rows(
            self.index.app_background_indices(a)
            for a in self.candidate_apps(apps)
        )


@dataclass(frozen=True)
class PolicyTransform:
    """A transformed packet view plus the freshness cost of producing it.

    ``packets`` is the counterfactual timeline (the *original* object
    when the policy is a no-op for this trace). ``moved_packets`` and
    ``delay_seconds`` report how many packets a shift-style policy
    delayed and by how much in total; drop-style policies leave them
    zero (the engine derives dropped packet/byte counts itself).
    """

    packets: PacketArray
    moved_packets: int = 0
    delay_seconds: float = 0.0


@runtime_checkable
class CounterfactualPolicy(Protocol):
    """What the engine requires of a policy."""

    name: ClassVar[str]

    def params(self) -> Dict[str, object]:
        """The policy's frozen parameters, by field name."""
        ...

    def transform(
        self, packets: PacketArray, context: PolicyContext
    ) -> PolicyTransform:
        """The counterfactual packet timeline for one trace."""
        ...


class PolicyParams:
    """Mixin giving frozen policy dataclasses ``params()`` and ``spec``."""

    name: ClassVar[str]

    def params(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def spec(self) -> str:
        """Canonical ``name(k=v, ...)`` string — provenance-stable.

        Sorted by parameter name, so it composes into store keys and
        ETags the way the attribution policy's repr already does.
        """
        inner = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.params().items())
        )
        return f"{self.name}({inner})"


def stacked_rows(groups: Iterable[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-app packet positions, concatenated in the given app order.

    Returns ``(rows, bounds)``: app ``k``'s positions are
    ``rows[bounds[k]:bounds[k + 1]]``. Transforms use it to run one
    numpy pass over every candidate app instead of one per app.
    """
    groups = list(groups)
    bounds = np.concatenate(
        ([0], np.cumsum([len(g) for g in groups], dtype=np.int64))
    )
    if not groups:
        return np.empty(0, dtype=np.int64), bounds
    return np.concatenate(groups).astype(np.int64, copy=False), bounds


def unchanged(packets: PacketArray) -> PolicyTransform:
    """The identity transform — signals the engine to reuse results."""
    return PolicyTransform(packets=packets)


def drop_packets(packets: PacketArray, drop: np.ndarray) -> PolicyTransform:
    """Apply a boolean drop mask (identity when nothing is dropped)."""
    if not drop.any():
        return unchanged(packets)
    return PolicyTransform(packets=packets.select(~drop))
