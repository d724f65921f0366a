"""Per-app energy attribution: the one copy of the radio arithmetic.

The paper's rule (§3.1): *"we assign any tail energy to the last packet
sent during the tail period to avoid double-counting energy when there
are multiple concurrent flows. In this way, the total cellular network
energy consumed by each device is the sum of the energy assigned to each
app."* That rule is :attr:`TailPolicy.LAST_PACKET` and is the default
everywhere; :attr:`TailPolicy.SPLIT_ADJACENT` is an alternative used by
the ablation bench to show how sensitive per-app numbers are to the
attribution choice (totals are conserved under both).

Both engines compute with this module. :func:`attribute_energy`
settles a whole device timeline in one :func:`settle_packets` call;
:class:`~repro.radio.streaming.StreamingAttribution` settles it a
chunk at a time through the same kernel and the same block-aligned
:func:`fold_idle`, so a streamed run adds the same floats in the same
order for any chunking. The event-driven
:class:`~repro.radio.machine.RadioStateMachine` stays apart, as the
independent scalar reference both are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ModelError, TraceError
from repro.keyed import fold_totals
from repro.radio.base import RadioModel
from repro.trace.arrays import PacketArray
from repro.trace.packet import Direction

#: Block length of :func:`fold_idle`: inner-gap idle time is summed one
#: ``np.sum`` per ``SUM_BLOCK`` values, at block boundaries counted from
#: the trace's first gap. ``float(values.sum())`` associates differently
#: for every array length; fixed blocks give one order of float
#: additions that any chunking can replay exactly.
SUM_BLOCK = 8192


class TailPolicy(Enum):
    """How inter-packet radio-on (tail) energy is attributed."""

    #: Paper's rule: whole gap's tail energy to the packet before it.
    LAST_PACKET = "last-packet"
    #: Split each inner gap's tail energy between the packets on both
    #: sides (the trailing full tail still goes to the final packet).
    SPLIT_ADJACENT = "split-adjacent"


def transfer_energy_vector(
    model: RadioModel, packets: PacketArray
) -> np.ndarray:
    """Per-packet transfer energy: linear in bytes, by direction."""
    sizes = packets.sizes.astype(np.float64)
    is_up = packets.directions == int(Direction.UPLINK)
    epb = np.where(is_up, model.energy_per_byte_up, model.energy_per_byte_down)
    return sizes * epb


def promotion_energy(
    model: RadioModel, gaps_before: np.ndarray, first: bool
) -> np.ndarray:
    """Promotion energy of the packets that follow ``gaps_before``.

    A packet arriving more than ``tail_duration`` after the previous one
    finds the radio demoted and pays a full promotion. With ``first``,
    the trace's first packet, which always promotes, leads the result
    (it has no gap before it).
    """
    promoted = gaps_before > model.tail_duration
    if first:
        promoted = np.concatenate(([True], promoted))
    return np.where(promoted, model.promotion_energy, 0.0)


def settle_packets(
    model: RadioModel,
    policy: TailPolicy,
    gaps: np.ndarray,
    fixed: np.ndarray,
    half_tail: float,
    closes: bool,
) -> Tuple[np.ndarray, float]:
    """Per-packet energy of a run of time-sorted packets.

    Args:
        gaps: The gap after each packet: to the next packet, or to the
            window end for the packet that closes the trace.
        fixed: Each packet's transfer plus promotion energy.
        half_tail: Under ``SPLIT_ADJACENT``, the half tail the packet
            before the run passes forward to the run's first packet
            (``0.0`` at the trace start).
        closes: The run's last packet closes the trace.

    The radio-on part of each gap, at most ``tail_duration``, costs its
    tail energy; it goes to the packet before the gap, or half to each
    side under ``SPLIT_ADJACENT``. The closing packet's own tail is
    never split: there is no packet after it.

    Returns:
        ``(per_packet, half_tail)``: the joules attributed to each
        packet, and the half tail passed on to the next run.
    """
    tail = model.tail_energy_vector(np.minimum(gaps, model.tail_duration))
    if policy is TailPolicy.SPLIT_ADJACENT and len(tail):
        half = tail * 0.5
        if closes:
            half[-1] = 0.0
        tail -= half
        tail[1:] += half[:-1]
        tail[0] += half_tail
        half_tail = float(half[-1])
    return fixed + tail, half_tail


def lead_in_idle(model: RadioModel, first_ts: float, w0: float) -> float:
    """Idle time before the first packet's promotion ramp."""
    return max(float(first_ts) - model.promotion_duration - w0, 0.0)


def inner_idle(model: RadioModel, gaps: np.ndarray) -> np.ndarray:
    """Idle time inside each inter-packet gap: what the tail and the
    next packet's promotion ramp leave of it."""
    return np.clip(
        gaps - model.tail_duration - model.promotion_duration, 0.0, None
    )


def fold_idle(
    acc: float, partial: np.ndarray, values: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Fold inner-gap idle ``values`` into a block-aligned running sum.

    ``acc`` holds the sum of every complete :data:`SUM_BLOCK` block so
    far, one ``float(block.sum())`` added per block, and ``partial``
    the values of the incomplete block after them. Returns the new
    ``(acc, partial)``; :func:`trace_idle_energy` adds the last partial
    block. Any split of one value sequence across calls adds the same
    blocks in the same order.
    """
    if len(partial):
        values = np.concatenate([partial, values])
    full = len(values) - len(values) % SUM_BLOCK
    for start in range(0, full, SUM_BLOCK):
        acc += float(values[start : start + SUM_BLOCK].sum())
    return acc, values[full:]


def trace_idle_energy(
    model: RadioModel,
    lead_in: float,
    acc: float,
    partial: np.ndarray,
    trailing_gap: float,
) -> float:
    """Unattributed idle energy of a finished, non-empty trace.

    The lead-in idle time, then the folded inner-gap idle time (``acc``
    plus the last ``partial`` block), then what the closing packet's
    tail leaves of ``trailing_gap``, the gap to the window end.
    """
    idle_time = lead_in + (acc + float(partial.sum()))
    idle_time += max(trailing_gap - model.tail_duration, 0.0)
    return float(idle_time * model.idle_power)


def window_idle_energy(
    model: RadioModel, window: Tuple[float, float]
) -> float:
    """Idle energy of a trace with no packets: the whole window."""
    return float((window[1] - window[0]) * model.idle_power)


@dataclass(frozen=True, eq=False)
class AttributionResult:
    """One device timeline's attribution: per-packet joules, the idle
    floor and the per-app view."""

    packets: PacketArray
    #: Joules attributed to each packet under ``policy``; read-only.
    per_packet: np.ndarray
    #: Radio energy attributed to no app (J), a Python float.
    idle_energy: float
    #: Simulation window ``(w0, w1)``.
    window: Tuple[float, float]
    policy: TailPolicy

    @property
    def attributed_energy(self) -> float:
        """Total attributed (per-app) energy."""
        return float(self.per_packet.sum())

    @property
    def total_energy(self) -> float:
        """Attributed plus idle energy."""
        return self.attributed_energy + self.idle_energy

    @cached_property
    def app_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        """(app ids ascending, joules): the per-app fold of
        ``per_packet`` (:func:`~repro.keyed.fold_totals`), run once per
        result; both arrays are read-only."""
        totals = fold_totals(self.packets.apps, self.per_packet)
        for array in totals:
            array.setflags(write=False)
        return totals

    def energy_by_app(self) -> Dict[int, float]:
        """Joules attributed to each app id (a fresh dict per call).

        The per-app fold runs once per result; later calls only
        rebuild the dict.
        """
        keys, totals = self.app_totals
        return dict(zip(keys.tolist(), totals.tolist()))


def attribute_energy(
    model: RadioModel,
    packets: PacketArray,
    window: Optional[Tuple[float, float]] = None,
    policy: TailPolicy = TailPolicy.LAST_PACKET,
) -> AttributionResult:
    """Compute and attribute radio energy for one device timeline.

    ``packets`` must be the *merged*, time-sorted timeline of every app
    on the device: the radio is shared, so gaps — and therefore tails —
    only make sense device-wide. Per-app energies fall out of the
    per-packet attribution. ``window`` defaults to the first and last
    packet times. Semantics are those of
    :meth:`repro.radio.machine.RadioStateMachine.simulate`.
    """
    if not packets.is_time_sorted():
        raise TraceError("packets must be time-sorted")
    n = len(packets)
    ts = packets.timestamps.astype(np.float64)
    if window is None:
        window = (float(ts[0]), float(ts[-1])) if n else (0.0, 0.0)
    w0, w1 = window
    if w1 < w0:
        raise ModelError(f"window end {w1} before start {w0}")
    if n and (ts[0] < w0 or ts[-1] > w1):
        raise TraceError("packets outside the simulation window")

    if n == 0:
        per_packet = np.zeros(0)
        idle = window_idle_energy(model, window)
    else:
        gaps = np.empty(n)
        gaps[:-1] = np.diff(ts)
        gaps[-1] = w1 - ts[-1]
        inner = gaps[:-1]
        fixed = transfer_energy_vector(model, packets) + promotion_energy(
            model, inner, first=True
        )
        per_packet, _ = settle_packets(
            model, policy, gaps, fixed, 0.0, closes=True
        )
        acc, partial = fold_idle(0.0, np.empty(0), inner_idle(model, inner))
        idle = trace_idle_energy(
            model, lead_in_idle(model, ts[0], w0), acc, partial, gaps[-1]
        )
    per_packet.setflags(write=False)
    return AttributionResult(packets, per_packet, idle, window, policy)
