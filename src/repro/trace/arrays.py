"""Columnar packet storage.

Month-scale traces hold millions of packets, which is far too many for
per-packet Python objects. :class:`PacketArray` stores packets in a numpy
structured array and is the form every analysis in :mod:`repro.core` and
the vectorised energy engine consume. Object packets
(:class:`~repro.trace.packet.Packet`) convert to and from this form.

Every move of whole records — a gather, a mask, a sort, a copy, a
concatenation, a read off a byte buffer — goes through this module's
raw-record view. numpy copies a structured record field by field; the
same 24 bytes viewed as one opaque ``void`` item move in one copy,
4-28x faster on a user's packets (docs/PERFORMANCE.md, "Moving packet
records"). No other module indexes or copies :attr:`PacketArray.data`
by rows.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import TraceError
from repro.keyed import fold_totals
from repro.trace.packet import Direction, Packet
from repro.trace.events import ProcessState

#: Sentinel for "process state not labelled yet".
STATE_UNLABELLED = 255

#: ``_DIRECTIONS[value]`` and ``_STATE_LABELS[label]`` are True for each
#: direction and state label a packet may carry — uplink or downlink; a
#: :class:`ProcessState` or :data:`STATE_UNLABELLED` — one entry per
#: ``uint8`` value.
_DIRECTIONS = np.zeros(256, dtype=bool)
_DIRECTIONS[[int(direction) for direction in Direction]] = True
_DIRECTIONS.setflags(write=False)
_STATE_LABELS = np.zeros(256, dtype=bool)
_STATE_LABELS[[int(state) for state in ProcessState]] = True
_STATE_LABELS[STATE_UNLABELLED] = True
_STATE_LABELS.setflags(write=False)


def packet_defect(data: np.ndarray) -> Optional[str]:
    """Why packet records hold a value no packet may carry, or ``None``:
    a timestamp that is not finite, a direction other than uplink or
    downlink, a state label that is neither a :class:`ProcessState` nor
    unlabelled — reported in that order. One vectorised pass per column
    (a 256-entry table lookup for each ``uint8`` one), no per-packet
    Python."""
    timestamps = data["timestamp"]
    finite = np.isfinite(timestamps)
    if not finite.all():
        return f"non-finite timestamp {float(timestamps[finite.argmin()])}"
    directions = data["direction"]
    ok = _DIRECTIONS[directions]
    if not ok.all():
        return (
            f"direction {int(directions[ok.argmin()])} is neither uplink "
            "(0) nor downlink (1)"
        )
    states = data["state"]
    ok = _STATE_LABELS[states]
    if not ok.all():
        return (
            f"state label {int(states[ok.argmin()])} is neither a "
            f"ProcessState nor unlabelled ({STATE_UNLABELLED})"
        )
    return None


#: numpy dtype of one packet record.
PACKET_DTYPE = np.dtype(
    [
        ("timestamp", "f8"),
        ("size", "u4"),
        ("direction", "u1"),
        ("app", "u2"),
        ("conn", "u4"),
        ("flow", "u4"),
        ("state", "u1"),
    ]
)


#: One packet record as opaque bytes: a gather, mask, copy or
#: concatenation of these moves each record in one copy, where
#: :data:`PACKET_DTYPE` moves it field by field. Same bytes either way.
_RECORD = np.dtype((np.void, PACKET_DTYPE.itemsize))


def _moved(data: np.ndarray, key) -> np.ndarray:
    """``data[key]``, bit for bit, moved as raw records (at least one
    dimension: a key that picks a single record gives a one-row copy)."""
    return np.atleast_1d(data.view(_RECORD)[key]).view(PACKET_DTYPE)


class PacketArray:
    """An immutable-by-convention, time-sortable column store of packets.

    The underlying structured array is exposed as :attr:`data`; column
    properties return views, not copies. Mutation is reserved for the
    library's own labelling passes (flow reconstruction, state
    labelling), which write whole columns at once.
    """

    def __init__(self, data: Optional[np.ndarray] = None) -> None:
        if data is None:
            data = np.empty(0, dtype=PACKET_DTYPE)
        if data.dtype != PACKET_DTYPE:
            raise TraceError(
                f"expected dtype {PACKET_DTYPE}, got {data.dtype}"
            )
        self.data = data

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "PacketArray":
        """Build from an iterable of object packets."""
        packets = list(packets)
        data = np.empty(len(packets), dtype=PACKET_DTYPE)
        for i, pkt in enumerate(packets):
            data[i] = (
                pkt.timestamp,
                pkt.size,
                int(pkt.direction),
                pkt.app,
                pkt.conn,
                pkt.flow,
                STATE_UNLABELLED,
            )
        return cls(data)

    @classmethod
    def from_columns(
        cls,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        apps: np.ndarray,
        conns: Optional[np.ndarray] = None,
    ) -> "PacketArray":
        """Build from parallel column arrays (the generator's fast path)."""
        n = len(timestamps)
        for name, col in (
            ("sizes", sizes),
            ("directions", directions),
            ("apps", apps),
        ):
            if len(col) != n:
                raise TraceError(
                    f"column {name} has length {len(col)}, expected {n}"
                )
        data = np.empty(n, dtype=PACKET_DTYPE)
        data["timestamp"] = timestamps
        data["size"] = sizes
        data["direction"] = directions
        data["app"] = apps
        data["conn"] = conns if conns is not None else 0
        data["flow"] = 0
        data["state"] = STATE_UNLABELLED
        return cls(data)

    @classmethod
    def concat(cls, arrays: Sequence["PacketArray"]) -> "PacketArray":
        """Concatenate several arrays (does not sort)."""
        if not arrays:
            return cls()
        raw = np.concatenate([a.data.view(_RECORD) for a in arrays])
        return cls(raw.view(PACKET_DTYPE))

    @classmethod
    def from_buffer(cls, buffer) -> "PacketArray":
        """A writable copy of the packet records packed in ``buffer``
        (bytes in :data:`PACKET_DTYPE`'s layout, as a ``.npy`` member
        or a spill file holds them)."""
        return cls(np.frombuffer(buffer, _RECORD).copy().view(PACKET_DTYPE))

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> np.ndarray:
        """Packet capture times, seconds since study start."""
        return self.data["timestamp"]

    @property
    def sizes(self) -> np.ndarray:
        """Packet sizes in bytes."""
        return self.data["size"]

    @property
    def directions(self) -> np.ndarray:
        """Packet directions (values of :class:`Direction`)."""
        return self.data["direction"]

    @property
    def apps(self) -> np.ndarray:
        """Per-packet app ids."""
        return self.data["app"]

    @property
    def conns(self) -> np.ndarray:
        """Per-packet connection ids."""
        return self.data["conn"]

    @property
    def flows(self) -> np.ndarray:
        """Per-packet flow ids (0 before reconstruction)."""
        return self.data["flow"]

    @property
    def states(self) -> np.ndarray:
        """Per-packet process state (``STATE_UNLABELLED`` before labelling)."""
        return self.data["state"]

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.to_packets())

    def __getitem__(self, key) -> "PacketArray":
        """The rows ``key`` picks, as ``data[key]`` picks them: an
        integer or a slice gives a view (an integer a one-row one), an
        int array or a boolean mask a copy."""
        if not isinstance(key, bool):
            try:
                row = range(len(self))[operator.index(key)]
            except TypeError:  # not an integer
                pass
            else:
                key = slice(row, row + 1)
        return PacketArray(_moved(self.data, key))

    def __repr__(self) -> str:
        if len(self) == 0:
            return "PacketArray(empty)"
        return (
            f"PacketArray(n={len(self)}, "
            f"t=[{self.timestamps[0]:.3f}, {self.timestamps[-1]:.3f}], "
            f"bytes={int(self.sizes.sum())})"
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def sorted_by_time(self) -> "PacketArray":
        """Return a copy sorted by timestamp (stable)."""
        return self[np.argsort(self.timestamps, kind="stable")]

    def retimed(self, rows, times: np.ndarray) -> "PacketArray":
        """A copy with the packets at ``rows`` (positions or a boolean
        mask) moved to ``times``, sorted by time (stable).

        One argsort of the new timestamps and one gather: the bytes of
        copying, assigning ``times`` and :meth:`sorted_by_time`.
        """
        timestamps = self.timestamps.copy()
        timestamps[rows] = times
        order = np.argsort(timestamps, kind="stable")
        data = _moved(self.data, order)
        data["timestamp"] = timestamps[order]
        return PacketArray(data)

    def is_time_sorted(self) -> bool:
        """True when timestamps are non-decreasing."""
        ts = self.timestamps
        return bool(np.all(ts[1:] >= ts[:-1])) if len(ts) > 1 else True

    def select(self, mask: np.ndarray) -> "PacketArray":
        """Return the packets where ``mask`` is true."""
        return self[mask]

    def for_app(self, app: int) -> "PacketArray":
        """Packets belonging to one app."""
        return self.select(self.apps == app)

    def in_range(self, start: float, end: float) -> "PacketArray":
        """Packets with ``start <= timestamp < end``."""
        ts = self.timestamps
        return self.select((ts >= start) & (ts < end))

    def to_packets(self) -> List[Packet]:
        """Convert to a list of object packets (small traces only)."""
        return [
            Packet(
                timestamp=float(rec["timestamp"]),
                size=int(rec["size"]),
                direction=Direction(int(rec["direction"])),
                app=int(rec["app"]),
                conn=int(rec["conn"]),
                flow=int(rec["flow"]),
            )
            for rec in self.data
        ]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Sum of all packet sizes."""
        return int(self.sizes.sum()) if len(self) else 0

    def bytes_by_app(self) -> dict:
        """Mapping of app id -> total bytes (exact integers)."""
        keys, totals = fold_totals(self.apps, self.sizes.astype(np.int64))
        return dict(zip(keys.tolist(), totals.tolist()))

    def duration(self) -> float:
        """Time span between first and last packet (0 when < 2 packets)."""
        if len(self) < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    def validate(self) -> None:
        """Raise :class:`TraceError` on structurally invalid packets."""
        if len(self) == 0:
            return
        if np.any(self.sizes == 0):
            raise TraceError("packet with zero size")
        if np.any(self.timestamps < 0):
            raise TraceError("packet with negative timestamp")
        defect = packet_defect(self.data)
        if defect is not None:
            raise TraceError(f"packet {defect}")
