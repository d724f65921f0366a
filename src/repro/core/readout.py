"""The tiered energy-readout abstraction, and the one study-wide fold.

Every headline figure and table of the paper (Figs 1-3, Table 1, the
84%-background split) is a reduction over *keyed totals*: joules per
app, per (app, state), bytes per app, idle floors. Both engines
produce each user's totals — the in-memory batch
:class:`~repro.core.accounting.StudyEnergy` and the bounded-memory
:class:`~repro.stream.StreamIngestor` — with bit-identical float
arithmetic (the carry-first bincount replay). This module gives the
analyses one surface over both, and folds the study-wide totals once:

* :class:`EnergyReadout` — the totals-tier base class. A subclass
  supplies one :class:`UserTotalsView` per user, its registry, windows
  and cadence; the base folds every study-wide total from those views
  in ``user_ids`` order, keyed dicts through :func:`merge_keyed_totals`
  and scalars through :func:`sequential_sum`. ``StudyEnergy`` (which
  additionally has per-packet arrays) and :class:`TotalsReadout`
  (which does not) both inherit it, so batch, stream, checkpoint and
  live-window totals are equal by construction.
* :class:`TotalsReadout` — a concrete totals-only readout built from
  per-user :class:`UserTotalsView` dicts; the base class of
  :class:`~repro.stream.StreamResult` and the object
  :func:`readout_from_checkpoint` returns for a finished
  ``repro ingest`` checkpoint. Its ``has_packet_detail`` is ``False``.
* :func:`require_packet_detail` — the guard per-packet analyses
  (transitions, timelines, what-if replay, Figs 4-6) call first, so a
  totals-only readout fails fast with a typed, actionable
  :class:`~repro.errors.NeedsPacketDetail` instead of an
  ``AttributeError`` three reductions deep.
* :class:`~repro.keyed.UserTotals` — the one per-user record both
  engines fill: three :class:`~repro.keyed.KeyedTotals` (float64
  carry-first bincount, int64 exact addition; re-exported here, and
  defined in :mod:`repro.keyed` beside the fold they carry).

Table 1 needs more than totals (flows per app, burst intervals); that
is the *cadence* tier: :class:`AppCadence` summaries that the batch
engine computes from packets on demand and the streaming engine tracks
incrementally at the paper's default gaps (see
:class:`repro.stream.cadence.CadenceTracker`).
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import units
from repro.core.periodicity import (
    DEFAULT_BURST_GAP,
    UpdateFrequency,
    frequency_from_intervals,
)
from repro.errors import NeedsPacketDetail, StreamError
from repro.keyed import STATE_BASE, KeyedTotals, UserTotals, split_app_state
from repro.trace.dataset import AppRegistry
from repro.trace.events import background_state_values

#: Default flow idle timeout for the cadence tier (Table 1's 1 h gap:
#: the case-study apps hold connections across several updates).
DEFAULT_FLOW_GAP = 3600.0

#: Background state values in increasing order: an app's background
#: keys ``app * 256 + state`` in the order a view's dicts iterate them.
_BG_VALUES = tuple(int(v) for v in background_state_values())


def merge_keyed_totals(parts, zero=0.0):
    """Fold per-user keyed totals into one dict, order-preserving.

    ``parts`` yields mappings (one per user, in a fixed order); each
    mapping's items are folded with ``totals[k] = totals.get(k, zero) + v``
    in that mapping's own iteration order. :class:`EnergyReadout` folds
    every study-wide keyed total this way, so batch, streaming,
    checkpoint-loaded and live-window totals land on bit-identical
    study-wide floats.
    """
    totals = {}
    for part in parts:
        for key, value in part.items():
            totals[key] = totals.get(key, zero) + value
    return totals


def sequential_sum(values, zero=0.0):
    """Add ``values`` left to right onto ``zero``; ``zero=0`` for ints.

    The plain fold builtin ``sum()`` runs up to CPython 3.11. From 3.12
    ``sum()`` compensates float additions, so the same total would
    differ in its last bits between supported Pythons; every study-wide
    scalar in :mod:`repro.core`, :mod:`repro.store` and
    :mod:`repro.follow` is added through this fold instead.
    """
    total = zero
    for value in values:
        total = total + value
    return total


def require_packet_detail(source, analysis: str):
    """Assert ``source`` carries per-packet arrays; return it.

    Per-packet analyses call this on entry. A
    :class:`~repro.core.accounting.StudyEnergy` and objects that do not
    declare ``has_packet_detail`` (a
    :class:`~repro.trace.dataset.Dataset`) pass through; a totals-only
    readout raises :class:`~repro.errors.NeedsPacketDetail` naming the
    analysis and the fix.
    """
    if getattr(source, "has_packet_detail", True):
        return source
    raise NeedsPacketDetail(
        analysis, f"input is a totals-only {type(source).__name__}"
    )


class UserTotalsView:
    """One user's totals-tier readout (keyed dicts, no packets).

    Energy dicts iterate in sorted-combined-key order — the order
    :func:`~repro.keyed.fold_totals` produces for the batch sums and
    :class:`~repro.keyed.UserTotals` preserves — so any sequential fold
    over them performs the same float additions on every readout.
    """

    def __init__(
        self,
        user_id: int,
        energy: Dict[int, float],
        app_state: Dict[int, float],
        bytes_state: Dict[int, int],
        idle_energy: float,
    ) -> None:
        self.user_id = user_id
        self.idle_energy = idle_energy
        self._energy = energy
        #: combined ``app * 256 + state`` -> joules
        self._app_state = app_state
        #: combined ``app * 256 + state`` -> bytes
        self._bytes_state = bytes_state

    def energy_by_app(self) -> Dict[int, float]:
        """Joules per app id."""
        return dict(self._energy)

    def energy_by_app_state(self) -> Dict[Tuple[int, int], float]:
        """Joules per (app id, process state)."""
        return {split_app_state(k): v for k, v in self._app_state.items()}

    def bytes_by_app_state(self) -> Dict[Tuple[int, int], int]:
        """Traffic bytes per (app id, process state), exact integers."""
        return {split_app_state(k): v for k, v in self._bytes_state.items()}

    def bytes_by_app(self) -> Dict[int, int]:
        """Traffic bytes per app id (exact integers)."""
        totals: Dict[int, int] = {}
        for k, v in self._bytes_state.items():
            app, _ = split_app_state(k)
            totals[app] = totals.get(app, 0) + v
        return totals

    def background_energy(self, app_id: int) -> float:
        """Joules of one app in background states, folded in key order."""
        return _background_sum(self._app_state, app_id, 0.0)

    def background_bytes(self, app_id: int) -> int:
        """Bytes of one app in background states (exact integer)."""
        return _background_sum(self._bytes_state, app_id, 0)


def _background_sum(by_key: dict, app_id: int, zero):
    """Add ``app_id``'s background values onto ``zero`` in key order.

    Looks up only that app's background keys, in increasing state order:
    the order a full walk of the sorted dict would meet them in, so the
    float additions are the same.
    """
    base = int(app_id) * STATE_BASE
    total = zero
    for state in _BG_VALUES:
        value = by_key.get(base + state)
        if value is not None:
            total += value
    return total


@dataclass(frozen=True)
class ReadoutProvenance:
    """What produced a readout: source fingerprint, model, policy.

    The identity triple the results store (:mod:`repro.store`) keys
    rendered artefacts by. ``fingerprint`` is
    :meth:`~repro.trace.dataset.Dataset.fingerprint` for a batch
    study and the checkpoint's source signature for an ingest readout;
    ``model`` is the frozen model dataclass ``repr``; ``policy`` the
    tail-policy value.
    """

    fingerprint: str
    model: str
    policy: str

    def short(self) -> str:
        """A 12-hex abbreviation of the fingerprint for display."""
        return self.fingerprint[:12]


@dataclass(frozen=True)
class UserCadence:
    """One user's background cadence for one app.

    Present only for users with at least one background packet of the
    app (the batch inclusion rule). ``intervals`` are the inter-burst
    intervals in chronological order; an empty array means a single
    burst with no successor.
    """

    user_id: int
    n_flows: int
    n_bursts: int
    intervals: np.ndarray


@dataclass(frozen=True)
class AppCadence:
    """Background flow/burst cadence of one app across all users.

    The per-packet-free inputs of Table 1's J/flow, MB/flow and
    update-frequency columns. ``per_user`` is in readout order.
    """

    app_id: int
    flow_gap: float
    burst_gap: float
    per_user: Tuple[UserCadence, ...]

    @property
    def n_users(self) -> int:
        """Users with background traffic for the app."""
        return len(self.per_user)

    @property
    def n_flows(self) -> int:
        """Background flows over all users (``flow_gap`` idle split)."""
        return sequential_sum((u.n_flows for u in self.per_user), zero=0)

    def update_frequency(
        self, max_interval: Optional[float] = 24 * 3600.0
    ) -> UpdateFrequency:
        """Pooled cadence summary, identical to the batch estimator."""
        return frequency_from_intervals(
            (u.intervals for u in self.per_user),
            sequential_sum((u.n_bursts for u in self.per_user), zero=0),
            max_interval,
        )


def fold_once(fold):
    """Memoize a readout's study-wide dict fold; copy it out per call.

    A readout is immutable once built, so ``fold`` runs once per
    instance and every call returns a fresh dict the caller may change.
    """
    slot = f"_folded_{fold.__name__}"

    @functools.wraps(fold)
    def folded(self):
        memo = self.__dict__.get(slot)
        if memo is None:
            memo = self.__dict__[slot] = fold(self)
        return dict(memo)

    return folded


class EnergyReadout(ABC):
    """The totals-tier analysis surface, and the one study-wide fold.

    Every totals-tier analysis in :mod:`repro.core` is typed against
    this class. A subclass supplies ``has_packet_detail``, its users
    (:attr:`user_ids`, :meth:`user_totals`), :attr:`registry`,
    :meth:`duration_days` and :meth:`background_cadence`. Every
    study-wide total is folded here from :meth:`user_totals` in
    :attr:`user_ids` order: keyed dicts through
    :func:`merge_keyed_totals` (memoized, copied out per call), idle
    and attributed energy through :func:`sequential_sum`.
    ``StudyEnergy`` (batch; ``has_packet_detail=True``) and
    :class:`TotalsReadout` (stream result, loaded checkpoint, live
    window; ``has_packet_detail=False``) both inherit it, so their
    totals are equal by construction.
    """

    #: Whether per-packet arrays back this readout: the analyses gated
    #: by :func:`require_packet_detail` need them.
    has_packet_detail: bool

    @property
    @abstractmethod
    def user_ids(self) -> List[int]:
        """User ids in readout order."""

    @abstractmethod
    def user_totals(self, user_id: int) -> UserTotalsView:
        """One user's totals-tier view."""

    @property
    @abstractmethod
    def registry(self) -> AppRegistry:
        """The study's app registry."""

    @abstractmethod
    def duration_days(self, user_id: int) -> float:
        """One user's observation window length in days."""

    @abstractmethod
    def background_cadence(
        self,
        app_id: int,
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> AppCadence:
        """One app's background flow/burst cadence across all users."""

    # ------------------------------------------------------------------
    # App registry
    # ------------------------------------------------------------------
    def app_id(self, app: str) -> int:
        """Resolve an app name to its numeric id."""
        return self.registry.id_of(app)

    def app_name(self, app_id: int) -> str:
        """Resolve a numeric app id to its name."""
        return self.registry.name_of(app_id)

    def app_category(self, app_id: int) -> str:
        """Category of the app with id ``app_id``."""
        return self.registry.by_id(app_id).category

    # ------------------------------------------------------------------
    # Study-wide totals
    # ------------------------------------------------------------------
    def _views(self) -> Iterator[UserTotalsView]:
        return (self.user_totals(uid) for uid in self.user_ids)

    @fold_once
    def energy_by_app(self) -> Dict[int, float]:
        """Joules per app id, summed over users."""
        return merge_keyed_totals(v.energy_by_app() for v in self._views())

    @fold_once
    def energy_by_app_state(self) -> Dict[Tuple[int, int], float]:
        """Joules per (app id, process state), summed over users."""
        return merge_keyed_totals(
            v.energy_by_app_state() for v in self._views()
        )

    @fold_once
    def energy_by_state(self) -> Dict[int, float]:
        """Joules per process state, summed over apps and users."""
        return merge_keyed_totals(
            {state: joules}
            for (_, state), joules in self.energy_by_app_state().items()
        )

    @fold_once
    def bytes_by_app(self) -> Dict[int, int]:
        """Traffic bytes per app id, summed over users (exact integers)."""
        return merge_keyed_totals(
            (v.bytes_by_app() for v in self._views()), zero=0
        )

    @property
    def idle_energy(self) -> float:
        """Unattributed idle-floor energy over all users, joules."""
        return sequential_sum(v.idle_energy for v in self._views())

    @property
    def attributed_energy(self) -> float:
        """Energy attributed to apps: the fold of the per-app totals."""
        return sequential_sum(self.energy_by_app().values())

    @property
    def total_energy(self) -> float:
        """Attributed plus idle energy, joules."""
        return self.attributed_energy + self.idle_energy


class TotalsReadout(EnergyReadout):
    """Concrete totals-only :class:`EnergyReadout`.

    Base class of :class:`~repro.stream.StreamResult` and the object a
    loaded checkpoint becomes: it holds one :class:`UserTotalsView` per
    user plus the registry, windows and cadence the ingest recorded.
    """

    has_packet_detail = False

    def __init__(
        self,
        totals: Iterable[UserTotalsView],
        *,
        registry: Optional[AppRegistry] = None,
        windows: Optional[Dict[int, Tuple[float, float]]] = None,
        cadences: Optional[
            Dict[int, Dict[int, Tuple[int, int, np.ndarray]]]
        ] = None,
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
        provenance: Optional[ReadoutProvenance] = None,
    ) -> None:
        self._totals = list(totals)
        self._totals_by_id = {t.user_id: t for t in self._totals}
        self._registry = registry
        self._windows = dict(windows) if windows is not None else {}
        self._cadences = cadences
        self._flow_gap = float(flow_gap)
        self._burst_gap = float(burst_gap)
        #: What produced this readout, when known — the identity the
        #: results store (:mod:`repro.store`) keys artefacts by.
        #: ``None`` for hand-assembled readouts, which cannot be keyed.
        self.provenance = provenance

    # ------------------------------------------------------------------
    # Users
    # ------------------------------------------------------------------
    @property
    def user_ids(self) -> List[int]:
        """User ids in readout (ingestion) order."""
        return [t.user_id for t in self._totals]

    def user_totals(self, user_id: int) -> UserTotalsView:
        """One user's totals-tier view."""
        try:
            return self._totals_by_id[user_id]
        except KeyError:
            raise StreamError(f"unknown user id {user_id}") from None

    def duration_days(self, user_id: int) -> float:
        """Observation window length in days."""
        window = self._windows.get(user_id)
        if window is None:
            raise StreamError(
                f"readout has no observation window for user {user_id}"
            )
        start, end = window
        return units.days(end - start)

    @property
    def registry(self) -> AppRegistry:
        """The study's app registry."""
        if self._registry is None:
            raise StreamError("readout carries no app registry")
        return self._registry

    # ------------------------------------------------------------------
    # Cadence tier
    # ------------------------------------------------------------------
    def background_cadence(
        self,
        app_id: int,
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> AppCadence:
        """One app's stored background cadence (default gaps only).

        The streaming engine tracks flows and bursts at the paper's
        default gaps while packets go by; asking for other gaps — or
        for cadence an ingest ran without — needs the packets back.
        """
        if self._cadences is None:
            raise NeedsPacketDetail(
                f"background_cadence(app={app_id})",
                "the ingest ran with cadence tracking disabled",
            )
        if flow_gap != self._flow_gap or burst_gap != self._burst_gap:
            raise NeedsPacketDetail(
                f"background_cadence(app={app_id}, flow_gap={flow_gap}, "
                f"burst_gap={burst_gap})",
                f"cadence was tracked at flow_gap={self._flow_gap}, "
                f"burst_gap={self._burst_gap}",
            )
        per_user = []
        for totals in self._totals:
            entry = self._cadences.get(totals.user_id, {}).get(app_id)
            if entry is not None:
                n_flows, n_bursts, intervals = entry
                per_user.append(
                    UserCadence(totals.user_id, n_flows, n_bursts, intervals)
                )
        return AppCadence(app_id, flow_gap, burst_gap, tuple(per_user))


class WindowedTotalsReadout(TotalsReadout):
    """A rolling-window slice of the stream as a first-class readout.

    Built by :class:`repro.follow.WindowRing` from the buckets of one
    sealed window: the same :class:`UserTotalsView` per user (folded
    bucket-by-bucket through :func:`merge_keyed_totals`), so every
    totals-tier analysis and every renderer in
    :data:`repro.store.render.ANALYSES` works on it unchanged. Idle
    energy is 0.0 — tails are only final when the stream ends, so a
    live window reports attributed energy only. Cadence is ``None``
    (windows carry no flow/burst history), so Table 1 correctly
    refuses with :class:`~repro.errors.NeedsPacketDetail`.
    """

    def __init__(
        self,
        totals: Iterable[UserTotalsView],
        *,
        window_name: str,
        window_start: float,
        window_end: float,
        registry: Optional[AppRegistry] = None,
        provenance: Optional[ReadoutProvenance] = None,
    ) -> None:
        span = (float(window_start), float(window_end))
        totals = list(totals)
        super().__init__(
            totals,
            registry=registry,
            windows={t.user_id: span for t in totals},
            cadences=None,
            provenance=provenance,
        )
        #: Which configured window this is (``"hour"``, ``"day"``, ...).
        self.window_name = str(window_name)
        #: Wall-clock (trace-time) bounds of the window, seconds.
        self.window_start, self.window_end = span


def readout_from_checkpoint(path) -> TotalsReadout:
    """Load a finished ingest checkpoint as a totals-tier readout.

    The whole point of the protocol: a completed (or resumed-to-
    completion) ``repro ingest --checkpoint ck.npz`` run becomes a
    first-class analysis input — ``repro figure fig3 --from-checkpoint
    ck.npz`` — without ever materialising a packet array. Checkpoints
    whose users are not all ``done`` raise
    :class:`~repro.errors.StreamError` with the resume hint; files
    older than checkpoint format 2 (no registry/window/cadence members)
    must be re-ingested.
    """
    # Imported here, not at module top: repro.stream imports this module
    # (DEFAULT_FLOW_GAP, TotalsReadout), and importing the stream package
    # from here at import time would close that cycle.
    from repro.stream.checkpoint import StreamCheckpoint

    checkpoint = StreamCheckpoint.load(path)
    return readout_from_loaded_checkpoint(checkpoint)


def readout_from_loaded_checkpoint(checkpoint) -> TotalsReadout:
    """Build the readout from an already-loaded ``StreamCheckpoint``."""
    # Deferred for the same import cycle as readout_from_checkpoint's.
    from repro.stream.cadence import CadenceTracker
    from repro.stream.checkpoint import TOTALS_NAME

    shard = getattr(checkpoint, "shard", None)
    if shard is not None:
        raise StreamError(
            f"checkpoint covers shard {shard.get('index')} of "
            f"{shard.get('of')} — it holds only that shard's users; "
            "merge the plan's shards with `repro shard merge` and "
            "analyse the merged checkpoint"
        )
    if checkpoint.registry_json is None:
        raise StreamError(
            "checkpoint predates format 2 (no app registry); re-run "
            "`repro ingest` to write an analysable checkpoint"
        )
    not_done = [u.user_id for u in checkpoint.users if u.status != "done"]
    if not_done:
        raise StreamError(
            f"checkpoint is mid-run ({len(checkpoint.users) - len(not_done)}"
            f" of {len(checkpoint.users)} users done); finish the ingest "
            "with `repro ingest --resume` before analysing it"
        )
    registry = AppRegistry.from_json(checkpoint.registry_json)
    totals = []
    windows: Dict[int, Tuple[float, float]] = {}
    cadences: Optional[Dict[int, Dict[int, Tuple[int, int, np.ndarray]]]]
    cadences = {} if checkpoint.has_cadence else None
    for user in checkpoint.users:
        uid = user.user_id
        if user.window is None:
            raise StreamError(
                f"checkpoint has no observation window for user {uid}; "
                "re-run `repro ingest` to write an analysable checkpoint"
            )
        windows[uid] = (float(user.window[0]), float(user.window[1]))
        saved = UserTotals.from_arrays(user.totals, TOTALS_NAME)
        totals.append(
            UserTotalsView(uid, *saved.as_dicts(), float(user.idle_energy))
        )
        if cadences is not None:
            cadences[uid] = (
                CadenceTracker.from_payload(user.cadence).summary()
                if user.cadence is not None
                else {}
            )
    return TotalsReadout(
        totals,
        registry=registry,
        windows=windows,
        cadences=cadences,
        flow_gap=checkpoint.cadence_flow_gap,
        burst_gap=checkpoint.cadence_burst_gap,
        provenance=ReadoutProvenance(
            fingerprint=checkpoint.signature,
            model=checkpoint.model_repr,
            policy=checkpoint.policy_value,
        ),
    )
