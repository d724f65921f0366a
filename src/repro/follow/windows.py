"""Rolling-window keyed totals: a ring of per-bucket ``UserTotals``.

A live follower cannot afford "recompute the last hour from scratch"
on every new chunk, and a subtractive window (``total -= expired``)
would break the library's bit-identity contract — float subtraction
does not undo float addition. The ring takes the third road:

* Trace time is divided into fixed **buckets** of ``bucket_s`` seconds
  (bucket ``b`` covers ``[b*bucket_s, (b+1)*bucket_s)``).
* Each (bucket, user) pair owns its own
  :class:`~repro.keyed.UserTotals` (per-app energy, per-(app, state)
  energy, per-(app, state) bytes). Because ``UserTotals.add`` is
  chunk-invariant (the carry-first bincount replay), a bucket's totals
  do not depend on how the stream was chunked — only on which settled
  packets fell into it.
* A **window** ending at sealed bucket ``B`` is the fold of buckets
  ``(B-n, B]`` in ascending bucket order through the study-wide
  :func:`~repro.core.readout.merge_keyed_totals` — the exact fold
  every readout replays. Evicting expired buckets just drops dict
  entries; it never touches a float. Hence the subsystem's core
  invariant, enforced by the property suite: the fold of a long-lived
  ring (any chunking, any eviction history, any number of checkpoint
  round-trips) is ``array_equal`` to the fold of a fresh ring built
  from only the window's packets.

Buckets are retained for ``2n`` bucket ids — the current window plus
the previous one (for headline deltas) — and evicted past that, so a
follower's memory is bounded by window span, not stream length.

A window's fold is kept until a bucket in its range changes (an
``ingest`` into it or its eviction): a follower asks for each sealed
window again as the next windows' prior, and to digest and publish it,
and each ask after the first is a copy of the kept fold.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.core.readout import (
    ReadoutProvenance,
    UserTotalsView,
    WindowedTotalsReadout,
    merge_keyed_totals,
)
from repro.errors import FollowError
from repro.keyed import UserTotals
from repro.trace.dataset import AppRegistry

#: Observation-window end for followed users: tailed sources have no
#: known end of time, so duration-based analyses see "the stream so
#: far" bounded by the largest float64-exact integer.
FOLLOW_WINDOW_END = float(2**53)

#: One window's fold, per user: (energy by app, energy by combined
#: (app, state) key, bytes by combined key).
UserFold = Tuple[Dict[int, float], Dict[int, float], Dict[int, int]]


@dataclass(frozen=True)
class WindowSpec:
    """One rolling window: a name, a span, and its bucket granularity.

    ``span_s`` must be a positive multiple of ``bucket_s``; the window
    then holds exactly ``span_s // bucket_s`` buckets. The bucket is
    also the *sealing* granularity: a window is (re-)evaluated when its
    next bucket boundary passes the stream's low-watermark.
    """

    name: str
    span_s: int
    bucket_s: int

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise FollowError(
                f"window name {self.name!r} must be non-empty and "
                "alphanumeric"
            )
        if self.bucket_s <= 0 or self.span_s <= 0:
            raise FollowError(
                f"window {self.name!r}: span and bucket must be positive "
                f"(got span={self.span_s}, bucket={self.bucket_s})"
            )
        if self.span_s % self.bucket_s != 0:
            raise FollowError(
                f"window {self.name!r}: span {self.span_s} s is not a "
                f"multiple of bucket {self.bucket_s} s"
            )

    @property
    def n_buckets(self) -> int:
        """Buckets per window (``span_s // bucket_s``)."""
        return self.span_s // self.bucket_s


#: The windows ``repro follow`` maintains by default.
DEFAULT_WINDOWS: Tuple[WindowSpec, ...] = (
    WindowSpec("hour", 3600, 300),
    WindowSpec("day", 86400, 7200),
    WindowSpec("week", 604800, 43200),
)


def parse_window_spec(text: str) -> WindowSpec:
    """Parse a CLI ``NAME=SPAN:BUCKET`` window spec (seconds)."""
    try:
        name, _, rest = text.partition("=")
        span_text, _, bucket_text = rest.partition(":")
        if not (name and span_text and bucket_text):
            raise ValueError("missing field")
        span, bucket = int(span_text), int(bucket_text)
    except ValueError:
        raise FollowError(
            f"window spec {text!r} is not NAME=SPAN:BUCKET "
            "(e.g. hour=3600:300)"
        ) from None
    return WindowSpec(name, span, bucket)


def _bucket_names(prefix: str, bucket: int, user_id: int) -> str:
    """The :meth:`UserTotals.arrays` naming of one (bucket, user)
    cell's saved totals: ``{prefix}_b{bucket}_u{user}_{e|s|y}{k|v}``."""
    return f"{prefix}_b{bucket}_u{user_id}_{{m}}{{p}}"


class WindowRing:
    """The ring of per-bucket, per-user :class:`UserTotals`."""

    def __init__(self, spec: WindowSpec) -> None:
        self.spec = spec
        #: bucket id -> user id -> that cell's :class:`UserTotals`.
        self._buckets: Dict[int, Dict[int, UserTotals]] = {}
        #: Highest sealed bucket this ring was evaluated (headlined,
        #: published) at; ``None`` before the first evaluation.
        self.last_evaluated: Optional[int] = None
        #: Total buckets evicted over the ring's lifetime.
        self.evictions = 0
        #: high bucket -> its window's fold, while no bucket in the
        #: window's range has changed since.
        self._folds: Dict[int, Dict[int, UserFold]] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        user_id: int,
        timestamps: np.ndarray,
        apps: np.ndarray,
        states: np.ndarray,
        sizes: np.ndarray,
        energies: np.ndarray,
    ) -> None:
        """Fold one settled, time-sorted packet run into its buckets.

        The run is split at bucket boundaries; each segment enters its
        (bucket, user) cell's totals as one ``add``. Since
        ``UserTotals.add`` is chunk-invariant, any chunking of the
        same packets lands every bucket on bit-identical totals.
        """
        if len(timestamps) == 0:
            return
        ids = np.floor(
            np.asarray(timestamps, np.float64) / self.spec.bucket_s
        ).astype(np.int64)
        cuts = np.flatnonzero(np.diff(ids)) + 1
        starts = np.concatenate([[0], cuts])
        ends = np.concatenate([cuts, [len(ids)]])
        self._forget_folds(int(ids.min()), int(ids.max()))
        for lo, hi in zip(starts, ends):
            cells = self._buckets.setdefault(int(ids[lo]), {})
            cells.setdefault(user_id, UserTotals()).add(
                apps[lo:hi], energies[lo:hi], states[lo:hi], sizes[lo:hi]
            )

    # ------------------------------------------------------------------
    # Fold + eviction
    # ------------------------------------------------------------------
    def bucket_ids(self) -> List[int]:
        """Present bucket ids, ascending."""
        return sorted(self._buckets)

    def fold(self, high_bucket: int) -> Dict[int, UserFold]:
        """The window ending at sealed bucket ``high_bucket``.

        Folds buckets ``(high_bucket - n, high_bucket]`` in ascending
        order per user through :func:`merge_keyed_totals` — the one
        study-wide fold — and returns per-user keyed dicts, users in
        sorted-id order. The fold is kept until a bucket in that range
        changes; each call returns fresh dicts.
        """
        folded = self._folds.get(high_bucket)
        if folded is None:
            folded = self._folds[high_bucket] = self._fold(high_bucket)
        return {
            uid: (dict(energy), dict(state), dict(sizes))
            for uid, (energy, state, sizes) in folded.items()
        }

    def _fold(self, high_bucket: int) -> Dict[int, UserFold]:
        low = high_bucket - self.spec.n_buckets
        selected = [b for b in self.bucket_ids() if low < b <= high_bucket]
        users = sorted(
            {uid for b in selected for uid in self._buckets[b]}
        )
        out: Dict[int, UserFold] = {}
        for uid in users:
            energy, state, sizes = zip(
                *(
                    self._buckets[b][uid].as_dicts()
                    for b in selected
                    if uid in self._buckets[b]
                )
            )
            out[uid] = (
                merge_keyed_totals(energy),
                merge_keyed_totals(state),
                merge_keyed_totals(sizes, zero=0),
            )
        return out

    def fold_digest(self, high_bucket: int) -> str:
        """Content hash of :meth:`fold` — equal iff the fold is.

        The live ``/live/...`` ETags and the publish-skip logic hang
        off this: it hashes the exact float64/int64 bit patterns, so
        the digest moves exactly when some window total moves.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.spec.name.encode("utf-8"))
        digest.update(np.int64(high_bucket).tobytes())
        for uid, (energy, state, sizes) in self.fold(high_bucket).items():
            digest.update(np.int64(uid).tobytes())
            for part, cast in (
                (energy, np.float64),
                (state, np.float64),
                (sizes, np.int64),
            ):
                for key in sorted(part):
                    digest.update(np.int64(key).tobytes())
                    digest.update(cast(part[key]).tobytes())
        return digest.hexdigest()

    def evict_through(self, bucket: int) -> int:
        """Drop every bucket with id <= ``bucket``; return the count.

        The follower calls this with ``sealed - 2n`` so the current
        and previous windows always survive. Eviction only deletes
        dict entries — no float is recomputed — which is why a
        long-lived ring stays bit-identical to a fresh one.
        """
        # A window reaching down to ``bucket`` has lost buckets, or
        # spans ids that can hold none: its fold is not asked for again.
        self._forget_folds(-np.inf, bucket)
        expired = [b for b in self._buckets if b <= bucket]
        if not expired:
            return 0
        faults.fire("follow.evict")
        for b in expired:
            del self._buckets[b]
        self.evictions += len(expired)
        return len(expired)

    def _forget_folds(self, low: float, high: int) -> None:
        """Drop the kept folds of the windows that hold a bucket id in
        ``[low, high]``."""
        n = self.spec.n_buckets
        for end in [e for e in self._folds if e - n < high and low <= e]:
            del self._folds[end]

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def window_bounds(self, high_bucket: int) -> Tuple[float, float]:
        """Trace-time ``[start, end)`` of the window sealed at ``high_bucket``."""
        bucket_s = self.spec.bucket_s
        return (
            float((high_bucket - self.spec.n_buckets + 1) * bucket_s),
            float((high_bucket + 1) * bucket_s),
        )

    def readout(
        self,
        high_bucket: int,
        registry: Optional[AppRegistry] = None,
        provenance: Optional[ReadoutProvenance] = None,
    ) -> WindowedTotalsReadout:
        """The window as a protocol-satisfying readout."""
        start, end = self.window_bounds(high_bucket)
        views = [
            UserTotalsView(uid, energy, state, sizes, 0.0)
            for uid, (energy, state, sizes) in self.fold(
                high_bucket
            ).items()
        ]
        return WindowedTotalsReadout(
            views,
            window_name=self.spec.name,
            window_start=start,
            window_end=end,
            registry=registry,
            provenance=provenance,
        )

    # ------------------------------------------------------------------
    # Checkpoint payload
    # ------------------------------------------------------------------
    def payload(
        self, prefix: str
    ) -> Tuple[dict, Dict[str, np.ndarray]]:
        """(meta JSON dict, named arrays) for the checkpoint extras.

        Array names are ``{prefix}_b{bucket}_u{user}_{e|s|y}{k|v}`` —
        keys/values of each cell's energy, app-state and bytes totals.
        """
        meta = {
            "name": self.spec.name,
            "span_s": self.spec.span_s,
            "bucket_s": self.spec.bucket_s,
            "last_evaluated": self.last_evaluated,
            "evictions": self.evictions,
            "buckets": {
                str(b): sorted(users)
                for b, users in sorted(self._buckets.items())
            },
        }
        arrays: Dict[str, np.ndarray] = {}
        for b, users in self._buckets.items():
            for uid, totals in users.items():
                arrays.update(totals.arrays(_bucket_names(prefix, b, uid)))
        return meta, arrays

    @classmethod
    def from_payload(
        cls, meta: dict, arrays: Dict[str, np.ndarray], prefix: str
    ) -> "WindowRing":
        """Rebuild a ring saved by :meth:`payload`, bit-identically.

        A key array that :meth:`UserTotals.from_arrays` refuses (see
        :func:`~repro.keyed.key_defect`) raises
        :class:`~repro.errors.FollowError` naming it.
        """
        ring = cls(
            WindowSpec(
                str(meta["name"]), int(meta["span_s"]), int(meta["bucket_s"])
            )
        )
        last = meta.get("last_evaluated")
        ring.last_evaluated = None if last is None else int(last)
        ring.evictions = int(meta.get("evictions", 0))
        for bucket_text, uids in meta["buckets"].items():
            b = int(bucket_text)
            for uid in uids:
                try:
                    totals = UserTotals.from_arrays(
                        arrays, _bucket_names(prefix, b, int(uid))
                    )
                except ValueError as exc:
                    raise FollowError(f"follow window array {exc}") from None
                ring._buckets.setdefault(b, {})[int(uid)] = totals
        return ring

