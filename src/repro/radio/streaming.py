"""Resumable, chunk-at-a-time radio simulation.

:class:`StreamingAttribution` consumes one device's time-ordered packet
stream in bounded chunks and emits, for every packet whose radio fate
is settled, the exact energy
:func:`~repro.radio.attribution.attribute_energy` attributes to it over
the whole trace — bit for bit, for any chunk size. Both call the one
kernel, :func:`~repro.radio.attribution.settle_packets`, and the one
idle fold, :func:`~repro.radio.attribution.fold_idle`.

Only one packet is ever undecided: a packet's transfer and promotion
energy are fixed the moment it arrives (they depend on the gap *before*
it), while its tail energy depends on the gap *after* it. So the carry
between chunks — :class:`RadioCarry` — is a single pending packet plus
a handful of accumulators:

* the pending packet's timestamp, app, state, transfer and promotion;
* half the raw tail of the packet before it (what
  :attr:`~repro.radio.attribution.TailPolicy.SPLIT_ADJACENT` shifts
  forward across the boundary);
* the idle-time fold: the complete
  :data:`~repro.radio.attribution.SUM_BLOCK` blocks' sum and the
  values of the incomplete block, at block boundaries counted from the
  stream's first gap, so the float additions happen in the one order.

The carry serialises to a small payload of plain numpy arrays
(:meth:`RadioCarry.to_payload`), which is what
:class:`repro.stream.StreamCheckpoint` persists: kill the process,
reload the payload, keep feeding — the numbers cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import StreamError, TraceError
from repro.radio.attribution import (
    SUM_BLOCK,
    TailPolicy,
    fold_idle,
    inner_idle,
    lead_in_idle,
    promotion_energy,
    settle_packets,
    trace_idle_energy,
    transfer_energy_vector,
    window_idle_energy,
)
from repro.radio.base import RadioModel
from repro.trace.arrays import PACKET_DTYPE, PacketArray

_EMPTY_F8 = np.empty(0, dtype=np.float64)


@dataclass
class RadioCarry:
    """Everything the radio simulation needs across a chunk boundary."""

    #: Simulation window ``(w0, w1)`` — ``attribute_energy``'s ``window``.
    window: Tuple[float, float]
    #: Packets consumed so far (including the pending one).
    n_packets: int = 0
    #: The pending (last-seen) packet, tail still open.
    pending_ts: float = 0.0
    pending_app: int = 0
    pending_state: int = 0
    pending_size: int = 0
    pending_transfer: float = 0.0
    pending_promotion: float = 0.0
    #: Half the raw tail of the packet before the pending one (what
    #: ``SPLIT_ADJACENT`` adds to the pending packet when it settles).
    prev_half_tail: float = 0.0
    #: ``max(ts0 - promotion_duration - w0, 0)`` — fixed by packet one.
    lead_in_idle: float = 0.0
    #: Completed-block part of the inner-gap idle time (the idle fold).
    idle_acc: float = 0.0
    #: Inner-gap idle values of the current, incomplete block.
    idle_buffer: np.ndarray = field(default_factory=lambda: _EMPTY_F8.copy())

    def to_payload(self) -> Dict[str, np.ndarray]:
        """A picklable / npz-storable form; floats stay binary-exact."""
        return {
            "floats": np.array(
                [
                    self.window[0],
                    self.window[1],
                    self.pending_ts,
                    self.pending_transfer,
                    self.pending_promotion,
                    self.prev_half_tail,
                    self.lead_in_idle,
                    self.idle_acc,
                ],
                dtype=np.float64,
            ),
            "ints": np.array(
                [
                    self.n_packets,
                    self.pending_app,
                    self.pending_state,
                    self.pending_size,
                ],
                dtype=np.int64,
            ),
            "idle_buffer": np.asarray(self.idle_buffer, dtype=np.float64),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, np.ndarray]) -> "RadioCarry":
        """Rebuild a carry from :meth:`to_payload` output."""
        floats = np.asarray(payload["floats"], dtype=np.float64)
        ints = np.asarray(payload["ints"], dtype=np.int64)
        return cls(
            window=(float(floats[0]), float(floats[1])),
            n_packets=int(ints[0]),
            pending_ts=float(floats[2]),
            pending_app=int(ints[1]),
            pending_state=int(ints[2]),
            pending_size=int(ints[3]),
            pending_transfer=float(floats[3]),
            pending_promotion=float(floats[4]),
            prev_half_tail=float(floats[5]),
            lead_in_idle=float(floats[6]),
            idle_acc=float(floats[7]),
            idle_buffer=np.asarray(payload["idle_buffer"], dtype=np.float64),
        )


def carry_defect(
    payload: Dict[str, np.ndarray]
) -> Optional[Tuple[str, str]]:
    """Why ``payload`` is not a saved :class:`RadioCarry`, as
    ``(member, defect)``, or ``None``.

    A saved carry has 8 finite float64 ``floats``, 4 int64 ``ints``
    with at least one packet consumed and the pending packet's app,
    state and size inside the packet record's ranges, and a finite
    float64 ``idle_buffer`` holding the incomplete idle block: after
    ``n_packets`` packets, ``n_packets - 1`` inner gaps went into the
    fold, so exactly ``(n_packets - 1) % SUM_BLOCK`` values.
    """
    floats, ints, idle = (
        np.asarray(payload[name]) for name in ("floats", "ints", "idle_buffer")
    )
    if floats.dtype != np.float64 or floats.shape != (8,):
        return "floats", (
            f"{floats.dtype} of shape {floats.shape}, not 8 float64 values"
        )
    if not np.isfinite(floats).all():
        return "floats", "values are not finite"
    if ints.dtype != np.int64 or ints.shape != (4,):
        return "ints", (
            f"{ints.dtype} of shape {ints.shape}, not 4 int64 values"
        )
    n_packets = int(ints[0])
    if n_packets < 1:
        return "ints", f"n_packets is {n_packets}, not at least 1"
    for name, value in zip(("app", "state", "size"), ints[1:].tolist()):
        top = np.iinfo(PACKET_DTYPE[name]).max
        if not 0 <= value <= top:
            return "ints", f"pending {name} {value} outside [0, {top}]"
    if idle.dtype != np.float64 or idle.ndim != 1:
        return "idle_buffer", (
            f"{idle.dtype} of shape {idle.shape}, not 1-D float64"
        )
    if not np.isfinite(idle).all():
        return "idle_buffer", "values are not finite"
    expected = (n_packets - 1) % SUM_BLOCK
    if len(idle) != expected:
        return "idle_buffer", (
            f"{len(idle)} values after {n_packets} packets, not {expected}"
        )
    return None


@dataclass
class FinalizedChunk:
    """Per-packet attribution of the packets settled by one feed.

    The integer columns keep the packet record's dtypes.
    """

    timestamps: np.ndarray  # packet times, float64
    apps: np.ndarray  # app ids
    states: np.ndarray  # process-state labels
    sizes: np.ndarray  # packet sizes
    per_packet: np.ndarray  # attributed joules under the policy, float64

    def __len__(self) -> int:
        return len(self.per_packet)

    @classmethod
    def empty(cls) -> "FinalizedChunk":
        none = PacketArray()
        return cls(
            none.timestamps,
            none.apps,
            none.states,
            none.sizes,
            _EMPTY_F8.copy(),
        )


def _after_pending(value, column: np.ndarray) -> np.ndarray:
    """The pending packet's ``value``, then ``column`` but its last row."""
    return np.concatenate((np.array([value], column.dtype), column[:-1]))


class StreamingAttribution:
    """Incremental :func:`~repro.radio.attribution.attribute_energy`.

    Feed time-ordered packet chunks with :meth:`feed`; each call returns
    the packets it settled (everything up to, not including, the new
    pending packet). :meth:`finish` settles the pending packet against
    the window end and returns the unattributed idle energy. The
    concatenation of every :class:`FinalizedChunk` is bit-identical —
    value by value — to the batch per-packet attribution over the whole
    trace, and the finished idle energy is bit-identical to its
    ``idle_energy``, for any chunk sizes.

    Args:
        model: Radio power model.
        policy: Tail-energy attribution rule.
        window: Simulation window ``(w0, w1)``; must equal the batch
            trace window for identity.
        carry: Resume from a previous run's :class:`RadioCarry`
            (default: start fresh).
    """

    def __init__(
        self,
        model: RadioModel,
        policy: TailPolicy,
        window: Tuple[float, float],
        carry: Optional[RadioCarry] = None,
    ) -> None:
        if window[1] < window[0]:
            raise StreamError(
                f"window end {window[1]} before start {window[0]}"
            )
        if carry is not None and tuple(carry.window) != tuple(window):
            raise StreamError(
                f"carry window {carry.window} does not match {window}"
            )
        self.model = model
        self.policy = policy
        self.window = (float(window[0]), float(window[1]))
        self.carry = carry if carry is not None else RadioCarry(self.window)
        self._finished = False

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def feed(self, chunk: PacketArray) -> FinalizedChunk:
        """Consume one time-ordered chunk; return the packets it settled.

        An empty chunk is a no-op. The first packet of the chunk settles
        the carried pending packet; the chunk's own last packet becomes
        the new pending one.
        """
        if self._finished:
            raise StreamError("feed() after finish()")
        k = len(chunk)
        if k == 0:
            return FinalizedChunk.empty()
        if not chunk.is_time_sorted():
            raise StreamError("chunk packets must be time-sorted")
        carry = self.carry
        ts = chunk.timestamps.astype(np.float64)
        w0, w1 = self.window
        if ts[0] < w0 or ts[-1] > w1:
            raise TraceError("packets outside the simulation window")
        first = carry.n_packets == 0
        if not first and ts[0] < carry.pending_ts:
            raise StreamError(
                f"chunk starts at {ts[0]} before pending packet at "
                f"{carry.pending_ts}"
            )

        model = self.model
        # The settled run is the pending packet (if any) and every chunk
        # packet but the last; ``gaps`` are the gaps after each of them,
        # which are also the gaps before each chunk packet.
        run_ts = ts if first else np.concatenate(([carry.pending_ts], ts))
        gaps = np.diff(run_ts)
        transfer = transfer_energy_vector(model, chunk)
        promotion = promotion_energy(model, gaps, first)
        columns = (chunk.apps, chunk.states, chunk.sizes, transfer + promotion)
        if first:
            carry.lead_in_idle = lead_in_idle(model, ts[0], w0)
            apps, states, sizes, fixed = (column[:-1] for column in columns)
        else:
            pending = (
                carry.pending_app,
                carry.pending_state,
                carry.pending_size,
                carry.pending_transfer + carry.pending_promotion,
            )
            apps, states, sizes, fixed = map(_after_pending, pending, columns)
        per_packet, carry.prev_half_tail = settle_packets(
            model, self.policy, gaps, fixed, carry.prev_half_tail, closes=False
        )
        carry.idle_acc, carry.idle_buffer = fold_idle(
            carry.idle_acc, carry.idle_buffer, inner_idle(model, gaps)
        )

        carry.n_packets += k
        carry.pending_ts = float(ts[-1])
        carry.pending_app = int(chunk.apps[-1])
        carry.pending_state = int(chunk.states[-1])
        carry.pending_size = int(chunk.sizes[-1])
        carry.pending_transfer = float(transfer[-1])
        carry.pending_promotion = float(promotion[-1])
        return FinalizedChunk(run_ts[:-1], apps, states, sizes, per_packet)

    def finish(self) -> Tuple[FinalizedChunk, float]:
        """Settle the pending packet against the window end.

        Returns ``(last settled packet(s), idle_energy)``; idle energy
        is the whole-trace ``attribute_energy`` idle floor, bit for bit.
        """
        if self._finished:
            raise StreamError("finish() called twice")
        self._finished = True
        carry = self.carry
        model = self.model
        if carry.n_packets == 0:
            return FinalizedChunk.empty(), window_idle_energy(
                model, self.window
            )

        trailing_gap = self.window[1] - carry.pending_ts
        per_packet, _ = settle_packets(
            model,
            self.policy,
            np.array([trailing_gap]),
            np.array([carry.pending_transfer + carry.pending_promotion]),
            carry.prev_half_tail,
            closes=True,
        )
        settled = FinalizedChunk(
            np.array([carry.pending_ts]),
            np.array([carry.pending_app], PACKET_DTYPE["app"]),
            np.array([carry.pending_state], PACKET_DTYPE["state"]),
            np.array([carry.pending_size], PACKET_DTYPE["size"]),
            per_packet,
        )
        idle = trace_idle_energy(
            model,
            carry.lead_in_idle,
            carry.idle_acc,
            carry.idle_buffer,
            trailing_gap,
        )
        return settled, idle

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has run."""
        return self._finished
