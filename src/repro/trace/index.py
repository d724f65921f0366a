"""Shared per-user trace index: one sort, zero repeated scans.

Every analysis in :mod:`repro.core` is a per-app, per-state reduction
over one user's packet timeline. Before this layer existed, each of
them rediscovered the same groups with full-array boolean masks —
``packets.apps == app_id`` here, ``np.isin(states, bg)`` there — making
every figure O(apps × packets). :class:`TraceIndex` computes the
partition once per user and hands every analysis O(group) views:

* **App grouping** — one stable O(n log n) argsort of the app column.
  Because packet arrays are time-sorted and the sort is stable, each
  app's packets form one contiguous slice of the order array, and the
  per-app index arrays it yields are ascending — so ``data[indices]``
  is row-identical to ``data[apps == app]``, bit for bit.
* **State masks** — the foreground/background membership tests
  (``np.isin`` against the interned state-value arrays of
  :mod:`repro.trace.events`) run once per trace; per-app intersections
  are O(group), not O(n).
* **Background episodes** — the per-app foreground→background interval
  boundaries (:func:`~repro.trace.intervals.background_transitions`)
  are memoized per app and shared by the transitions, case-study and
  recommendation analyses.

Everything is lazy: constructing a :class:`TraceIndex` costs nothing,
each structure is built on first use and memoized, and reuse is
observable (``hits`` / ``build_seconds``, mirrored into an attached
:class:`~repro.metrics.RunMetrics` as the ``index.build`` stage and the
``index.hits`` counter). The index is derived state — it is never
persisted and takes no part in any store key.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.trace.arrays import PacketArray
from repro.trace.events import (
    EventLog,
    background_state_values,
    foreground_state_values,
)
from repro.trace.intervals import BackgroundTransition, background_transitions

_EMPTY_INDICES = np.empty(0, dtype=np.int64)
_EMPTY_INDICES.setflags(write=False)


def _compute_grouping(
    packets: PacketArray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, app_ids, starts): stable argsort of the app column.

    ``order[starts[i]:starts[i+1]]`` are the ascending positions of
    ``app_ids[i]``'s packets in the original (time-sorted) array.
    """
    apps = packets.apps
    order = np.argsort(apps, kind="stable").astype(np.int64, copy=False)
    if len(order) == 0:
        return order, np.empty(0, dtype=apps.dtype), np.zeros(1, dtype=np.int64)
    sorted_apps = apps[order]
    change = np.flatnonzero(sorted_apps[1:] != sorted_apps[:-1]) + 1
    starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), change, np.array([len(apps)])]
    )
    return order, sorted_apps[starts[:-1]], starts


def _compute_state_masks(packets: PacketArray) -> Tuple[np.ndarray, np.ndarray]:
    """(foreground, background) membership masks over all packets."""
    states = packets.states
    return (
        np.isin(states, foreground_state_values()),
        np.isin(states, background_state_values()),
    )


class TraceIndex:
    """Lazily-built, memoized per-app / per-state index of one trace.

    Args:
        packets: The user's time-sorted packet array. The index keeps a
            reference; it copies nothing until a structure is built.
        events: The user's event log (needed only for
            :meth:`background_episodes`).
        t_end: End of the observation window (episode truncation).
        metrics: Optional :class:`~repro.metrics.RunMetrics`; build
            time accumulates under the ``index.build`` stage and every
            memo-served access increments the ``index.hits`` counter.
    """

    def __init__(
        self,
        packets: PacketArray,
        events: Optional[EventLog] = None,
        t_end: Optional[float] = None,
        metrics=None,
    ) -> None:
        self.packets = packets
        self.events = events
        self.t_end = t_end
        self.metrics = metrics
        #: Seconds spent building structures (this instance, in-process).
        self.build_seconds = 0.0
        #: Number of accesses served from an already-built structure.
        self.hits = 0
        self._order: Optional[np.ndarray] = None
        self._app_ids: Optional[np.ndarray] = None
        self._starts: Optional[np.ndarray] = None
        self._slices: Dict[int, slice] = {}
        self._fg_mask: Optional[np.ndarray] = None
        self._bg_mask: Optional[np.ndarray] = None
        self._bg_indices: Optional[np.ndarray] = None
        self._app_fg: Dict[int, np.ndarray] = {}
        self._app_bg: Dict[int, np.ndarray] = {}
        self._episodes: Dict[int, Tuple[BackgroundTransition, ...]] = {}
        self._bytes_by_app: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _hit(self) -> None:
        self.hits += 1
        if self.metrics is not None:
            self.metrics.count("index.hits")

    def _build(self, builder) -> None:
        """Run ``builder`` under the build timer (and metrics stage)."""
        started = time.perf_counter()
        if self.metrics is not None:
            with self.metrics.stage("index.build"):
                builder()
        else:
            builder()
        self.build_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # App grouping
    # ------------------------------------------------------------------
    @property
    def is_grouped(self) -> bool:
        """True once the app grouping has been built."""
        return self._order is not None

    def build(self) -> "TraceIndex":
        """Build the app grouping and the state masks now.

        The batch warm-up: both are packet-only and read by every
        figure, so later accesses are memo hits.
        """
        self._ensure_grouping()
        self._ensure_masks()
        return self

    def _ensure_grouping(self) -> None:
        if self._order is not None:
            self._hit()
            return

        def builder() -> None:
            self._order, self._app_ids, self._starts = _compute_grouping(
                self.packets
            )
            self._slices = {
                int(app): slice(int(lo), int(hi))
                for app, lo, hi in zip(
                    self._app_ids, self._starts[:-1], self._starts[1:]
                )
            }

        self._build(builder)

    @property
    def app_ids(self) -> np.ndarray:
        """Ascending ids of apps with at least one packet."""
        self._ensure_grouping()
        return self._app_ids

    def has_app(self, app: int) -> bool:
        """True when the app has at least one packet in this trace."""
        self._ensure_grouping()
        return int(app) in self._slices

    def __contains__(self, app: object) -> bool:
        return isinstance(app, (int, np.integer)) and self.has_app(int(app))

    def __iter__(self) -> Iterator[int]:
        """Iterate over app ids in ascending order."""
        return iter(int(a) for a in self.app_ids)

    def app_count(self, app: int) -> int:
        """Number of packets of one app (0 when absent)."""
        self._ensure_grouping()
        group = self._slices.get(int(app))
        return 0 if group is None else group.stop - group.start

    def app_indices(self, app: int) -> np.ndarray:
        """Ascending positions of one app's packets in the trace.

        A zero-copy view into the order array; equal to
        ``np.flatnonzero(packets.apps == app)``. Treat it as read-only.
        """
        self._ensure_grouping()
        group = self._slices.get(int(app))
        if group is None:
            return _EMPTY_INDICES
        return self._order[group]

    def app_packets(self, app: int) -> PacketArray:
        """One app's packets, row-identical to ``packets.for_app(app)``."""
        return self.packets[self.app_indices(app)]

    def app_timestamps(self, app: int) -> np.ndarray:
        """One app's packet timestamps, ascending."""
        return self.packets.timestamps[self.app_indices(app)]

    def bytes_by_app(self) -> Dict[int, int]:
        """App id → total bytes, from one reduceat over the grouping.

        Equal to :meth:`~repro.trace.arrays.PacketArray.bytes_by_app`.
        """
        if self._bytes_by_app is None:
            self._ensure_grouping()

            def builder() -> None:
                if len(self.packets) == 0:
                    self._bytes_by_app = {}
                    return
                sorted_sizes = self.packets.sizes.astype(np.int64)[self._order]
                sums = np.add.reduceat(sorted_sizes, self._starts[:-1])
                self._bytes_by_app = {
                    int(app): int(total)
                    for app, total in zip(self._app_ids, sums)
                }

            self._build(builder)
        else:
            self._hit()
        return dict(self._bytes_by_app)

    # ------------------------------------------------------------------
    # State masks
    # ------------------------------------------------------------------
    def _ensure_masks(self) -> None:
        if self._fg_mask is not None:
            self._hit()
            return

        def builder() -> None:
            self._fg_mask, self._bg_mask = _compute_state_masks(self.packets)

        self._build(builder)

    @property
    def foreground_mask(self) -> np.ndarray:
        """Per-packet membership in the paper's foreground group."""
        self._ensure_masks()
        return self._fg_mask

    @property
    def background_mask(self) -> np.ndarray:
        """Per-packet membership in the paper's background group."""
        self._ensure_masks()
        return self._bg_mask

    @property
    def background_indices(self) -> np.ndarray:
        """Ascending positions of all background-state packets."""
        if self._bg_indices is None:
            mask = self.background_mask

            def builder() -> None:
                self._bg_indices = np.flatnonzero(mask)

            self._build(builder)
        else:
            self._hit()
        return self._bg_indices

    def app_foreground_indices(self, app: int) -> np.ndarray:
        """Ascending positions of one app's foreground-state packets."""
        key = int(app)
        cached = self._app_fg.get(key)
        if cached is None:
            idx = self.app_indices(key)
            mask = self.foreground_mask

            def builder() -> None:
                self._app_fg[key] = idx[mask[idx]]

            self._build(builder)
            cached = self._app_fg[key]
        else:
            self._hit()
        return cached

    def app_background_indices(self, app: int) -> np.ndarray:
        """Ascending positions of one app's background-state packets.

        Equal to ``np.flatnonzero((apps == app) & np.isin(states, bg))``
        but O(group) once the masks exist.
        """
        key = int(app)
        cached = self._app_bg.get(key)
        if cached is None:
            idx = self.app_indices(key)
            mask = self.background_mask

            def builder() -> None:
                self._app_bg[key] = idx[mask[idx]]

            self._build(builder)
            cached = self._app_bg[key]
        else:
            self._hit()
        return cached

    def app_background_packets(self, app: int) -> PacketArray:
        """One app's background-state packets as a PacketArray."""
        return self.packets[self.app_background_indices(app)]

    # ------------------------------------------------------------------
    # Background episodes
    # ------------------------------------------------------------------
    def background_episodes(self, app: int) -> Tuple[BackgroundTransition, ...]:
        """The app's foreground→background episodes, memoized.

        Requires the index to have been built with the trace's event
        log and window end (as :meth:`UserTrace.index` does).
        """
        key = int(app)
        cached = self._episodes.get(key)
        if cached is None:
            if self.events is None or self.t_end is None:
                raise TraceError(
                    "TraceIndex was built without events/t_end; "
                    "background episodes are unavailable"
                )

            def builder() -> None:
                self._episodes[key] = tuple(
                    background_transitions(self.events, key, self.t_end)
                )

            self._build(builder)
            cached = self._episodes[key]
        else:
            self._hit()
        return cached

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_states(self) -> None:
        """Drop state-derived memos (after relabelling packet states).

        The app grouping survives — relabelling never moves packets.
        """
        self._fg_mask = None
        self._bg_mask = None
        self._bg_indices = None
        self._app_fg.clear()
        self._app_bg.clear()

    def __repr__(self) -> str:
        built = "grouped" if self.is_grouped else "unbuilt"
        return (
            f"TraceIndex(n={len(self.packets)}, {built}, "
            f"hits={self.hits}, build_s={self.build_seconds:.4f})"
        )
