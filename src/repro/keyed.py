"""Keyed folds: per-app and per-(app, state) totals.

The paper attributes each device's energy to apps and states (§3.1: the
device total "is the sum of the energy assigned to each app"), so every
figure, table and policy row is a keyed sum: joules per app, joules and
bytes per (app, state). This module holds the one fold behind all of
them, and the two key formats they share:

* an **app key** is the ``uint16`` app id itself;
* an **app-state key** is ``app * 256 + state``, the dict key of every
  per-(app, state) readout and the key a checkpoint stores.

:func:`fold_totals` sums float64 values with ``np.bincount`` and int64
values with exact ``np.add.at``, over a dense integer key. Any running
totals enter first, as leading entries. ``np.bincount`` adds each key's
values in input order whichever integer stands for the key, so the
totals have the bits of a fold over ``np.unique``'s inverse, without
its argsort. App ids are dense already and fold as they are. App-state
keys fold over ``app * n + rank[state]``, where ``rank`` numbers the
``n`` state values present in ascending order: the map is injective
over every ``uint8`` state (``STATE_UNLABELLED`` and labels outside
``ProcessState`` included) and keeps key order. The raw app-state key
would index 256 slots per app, most of them empty.

Batch attribution (:class:`~repro.radio.attribution.AttributionResult`),
the packet store (:meth:`~repro.trace.arrays.PacketArray.bytes_by_app`)
and :class:`KeyedTotals` all call it.

:class:`UserTotals` is the per-user record the paper's accounting rests
on: three :class:`KeyedTotals` (joules per app, joules and bytes per
(app, state)), one ``add`` for all three (``whole_run`` when the
per-app fold is already at hand), and one saved form, checked at load
by :func:`key_defect`. :meth:`StudyEnergy.user_totals
<repro.core.accounting.StudyEnergy.user_totals>`, each stream
accumulator, each follow window bucket and a loaded checkpoint hold
one; no other module builds a :class:`KeyedTotals` or checks a saved
key array.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

#: App-state keys are combined as ``app * STATE_BASE + state``.
STATE_BASE = 256

#: App ids are ``uint16``: every app key lies below this bound.
APP_KEY_BOUND = 1 << 16

#: Every app-state key lies below this bound.
APP_STATE_KEY_BOUND = APP_KEY_BOUND * STATE_BASE


def combined_app_state_keys(
    apps: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Combine app/state arrays into the shared ``app*256+state`` keys."""
    return np.asarray(apps, np.int64) * STATE_BASE + np.asarray(
        states, np.int64
    )


def split_app_state(key: int) -> Tuple[int, int]:
    """One app-state key as its ``(app id, state)`` pair."""
    return divmod(int(key), STATE_BASE)


def fold_totals(
    keys: np.ndarray,
    values: np.ndarray,
    states: Optional[np.ndarray] = None,
    carry: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-key totals of ``values``: ``(keys ascending, totals)``.

    ``keys`` are non-negative ids, app ids in practice. With
    ``states``, row ``i`` counts towards the app-state key of
    ``(keys[i], states[i])`` instead. ``carry`` holds running totals
    as ``(keys, totals)`` in the output format; each carried total
    enters its key's sum before any of ``values``, so a carried fold
    over chunks gives the bits of one fold over their concatenation.

    Every key with a row is present, even at a zero total. Integer
    values are summed exactly into int64; any other values as float64.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if carry is not None and len(carry[0]):
        carry_keys, carry_values = carry
        if states is not None:
            carry_keys, carry_states = np.divmod(carry_keys, STATE_BASE)
            states = np.concatenate([carry_states, states])
        keys = np.concatenate([carry_keys, keys])
        values = np.concatenate([carry_values, values])
    exact = np.issubdtype(values.dtype, np.integer)
    if len(keys) == 0:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64 if exact else np.float64),
        )
    dense = keys.astype(np.intp, copy=False)
    if states is not None:
        present = np.bincount(states, minlength=STATE_BASE) > 0
        labels = np.flatnonzero(present)
        rank = np.cumsum(present) - 1
        dense = dense * len(labels) + np.take(rank, states)
    counts = np.bincount(dense)
    if exact:
        sums = np.zeros(len(counts), np.int64)
        np.add.at(sums, dense, values)
    else:
        sums = np.bincount(dense, weights=values, minlength=len(counts))
    found = np.flatnonzero(counts)
    totals = sums[found]
    if states is not None:
        apps, ranks = np.divmod(found, len(labels))
        found = combined_app_state_keys(apps, labels[ranks])
    return found.astype(np.int64, copy=False), totals


def key_defect(
    keys: np.ndarray, values: np.ndarray, bound: int
) -> Optional[str]:
    """Why ``(keys, values)`` is not a saved :class:`KeyedTotals`, or
    ``None``.

    A saved key array is 1-D int64, strictly increasing, as long as
    its values, and within ``[0, bound)``: :data:`APP_KEY_BOUND` for
    app keys, :data:`APP_STATE_KEY_BOUND` for app-state keys. The fold
    indexes by key, so a negative key would fail there and an
    oversized one allocate a slot for every key below it.
    """
    keys = np.asarray(keys)
    if keys.dtype != np.int64 or keys.ndim != 1:
        return f"keys are {keys.dtype} of shape {keys.shape}, not 1-D int64"
    if np.shape(values) != keys.shape:
        return (
            f"{len(keys)} keys for values of shape {np.shape(values)}"
        )
    if len(keys) and (keys.min() < 0 or keys.max() >= bound):
        return (
            f"keys span [{keys.min()}, {keys.max()}], outside [0, {bound})"
        )
    if np.any(np.diff(keys) <= 0):
        return "keys are not strictly increasing"
    return None


class KeyedTotals:
    """The shared streaming per-key accumulator, float or int.

    **float64** (default): :meth:`add` folds each chunk through
    :func:`fold_totals` with the running totals carried in first, as
    leading entries of the chunk's ``np.bincount``. That replays the
    whole-trace addition sequence of the batch per-key sums (the same
    fold over the whole trace, in
    :meth:`~repro.radio.attribution.AttributionResult.energy_by_app`):
    each key's partial enters first, then its chunk values in order,
    and ``0.0 + x == x`` keeps the very first chunk unperturbed. The
    accumulated totals are therefore bit-identical to the batch result
    for any chunk sizes.

    **int64**: integer addition is associative, so no ordering trick is
    needed: any chunking lands on the identical integers the batch
    :meth:`~repro.trace.index.TraceIndex.bytes_by_app` reduction
    computes. ``np.add.at`` keeps repeated keys within a chunk exact
    (bincount weights would detour through float64).
    """

    def __init__(
        self,
        keys: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
        dtype=np.float64,
    ) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.int64)):
            raise ValueError(f"KeyedTotals supports float64/int64, got {dtype}")
        self._keys = (
            np.empty(0, dtype=np.int64)
            if keys is None
            else np.asarray(keys, dtype=np.int64)
        )
        self._values = (
            np.empty(0, dtype=self.dtype)
            if values is None
            else np.asarray(values, dtype=self.dtype)
        )

    def add(
        self,
        keys: np.ndarray,
        amounts: np.ndarray,
        states: Optional[np.ndarray] = None,
    ) -> None:
        """Accumulate ``amounts`` grouped by ``keys`` (one chunk).

        With ``states``, ``keys`` are app ids and the totals are keyed
        per (app, state), as in :func:`fold_totals`.
        """
        if len(keys) == 0:
            return
        self._keys, self._values = fold_totals(
            keys,
            np.asarray(amounts, self.dtype),
            states,
            carry=(self._keys, self._values),
        )

    def as_dict(self) -> Dict[int, float]:
        """Totals keyed by int, in sorted-key order (the batch order)."""
        return dict(zip(self._keys.tolist(), self._values.tolist()))

    def payload(self) -> Tuple[np.ndarray, np.ndarray]:
        """(keys, values) arrays for checkpoint serialisation."""
        return self._keys.copy(), self._values.copy()

    def __len__(self) -> int:
        return len(self._keys)


class UserTotals:
    """One user's totals: joules per app, joules and bytes per (app, state).

    The record every totals-tier artefact rests on (§3 gives each
    device's energy to apps and to process states). :meth:`add` folds
    one run of settled packets into its three :class:`KeyedTotals`, so
    any chunking of the same packets lands on the same bits.
    :meth:`arrays` and :meth:`from_arrays` save and load the six
    key/value arrays under the caller's names.
    """

    #: The members: (name, one-letter tag, key bound, value dtype).
    _MEMBERS = (
        ("energy", "e", APP_KEY_BOUND, np.float64),
        ("state", "s", APP_STATE_KEY_BOUND, np.float64),
        ("bytes", "y", APP_STATE_KEY_BOUND, np.int64),
    )

    __slots__ = ("_members",)

    def __init__(self) -> None:
        self._members = tuple(
            KeyedTotals(dtype=dtype) for _, _, _, dtype in self._MEMBERS
        )

    def add(
        self,
        apps: np.ndarray,
        energies: np.ndarray,
        states: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Fold one run of packets: their app ids, joules, process
        states and byte sizes."""
        energy, app_state, bytes_state = self._members
        energy.add(apps, energies)
        app_state.add(apps, energies, states)
        bytes_state.add(apps, sizes, states)

    @classmethod
    def whole_run(
        cls,
        app_energy: Tuple[np.ndarray, np.ndarray],
        apps: np.ndarray,
        energies: np.ndarray,
        states: np.ndarray,
        sizes: np.ndarray,
    ) -> "UserTotals":
        """The record :meth:`add` of one whole run into an empty record
        gives, with its joules per app taken from ``app_energy``:
        ``fold_totals(apps, energies)``, as the caller already holds it
        (:attr:`AttributionResult.app_totals
        <repro.radio.attribution.AttributionResult.app_totals>`). That
        is the fold :meth:`add` runs on an empty record, so the bits
        are the same and the run's joules fold once."""
        record = cls()
        _, app_state, bytes_state = record._members
        app_state.add(apps, energies, states)
        bytes_state.add(apps, sizes, states)
        record._members = (KeyedTotals(*app_energy), app_state, bytes_state)
        return record

    def as_dicts(
        self,
    ) -> Tuple[Dict[int, float], Dict[int, float], Dict[int, int]]:
        """(joules by app, joules by app-state key, bytes by app-state
        key), each in key order."""
        energy, app_state, bytes_state = self._members
        return energy.as_dict(), app_state.as_dict(), bytes_state.as_dict()

    def arrays(self, name: str) -> Dict[str, np.ndarray]:
        """The six saved arrays, named by the template ``name``.

        ``name`` is a :meth:`str.format` template over ``{member}``
        (``energy``, ``state``, ``bytes``) and ``{part}`` (``keys``,
        ``values``), or over their one-letter tags ``{m}`` (``e``,
        ``s``, ``y``) and ``{p}`` (``k``, ``v``).
        """
        out: Dict[str, np.ndarray] = {}
        for (member, tag, _, _), totals in zip(self._MEMBERS, self._members):
            keys_name, values_name = _member_names(name, member, tag)
            out[keys_name], out[values_name] = totals.payload()
        return out

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], name: str
    ) -> "UserTotals":
        """Load the record :meth:`arrays` saved under ``name``.

        Each member's key array must pass :func:`key_defect`; the first
        that does not raises ``ValueError("<keys name>: <defect>")``.
        """
        record = cls()
        members = []
        for member, tag, bound, dtype in cls._MEMBERS:
            keys_name, values_name = _member_names(name, member, tag)
            keys, values = arrays[keys_name], arrays[values_name]
            defect = key_defect(keys, values, bound)
            if defect is not None:
                raise ValueError(f"{keys_name}: {defect}")
            members.append(KeyedTotals(keys, values, dtype=dtype))
        record._members = tuple(members)
        return record


def _member_names(name: str, member: str, tag: str) -> Tuple[str, str]:
    """One member's (keys, values) array names under template ``name``."""
    return (
        name.format(member=member, part="keys", m=tag, p="k"),
        name.format(member=member, part="values", m=tag, p="v"),
    )
