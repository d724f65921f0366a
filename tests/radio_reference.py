"""The batch radio engine as it stood before the one-kernel refactor,
frozen as the bit-exact reference for ``repro.radio.attribution``.

``compute_packet_energy`` (with ``PacketEnergy``, ``packet_gaps``,
``promotion_energy_vector``, ``blocked_sum`` and
``transfer_energy_vector``) and ``_apply_tail_policy`` are copied
verbatim from the deleted ``repro.radio.vectorized`` module and the old
``repro.radio.attribution``; :func:`reference_attribution` composes
them exactly as the old ``attribute_energy`` and
``AttributionResult.per_packet`` did. The engine in ``src`` must equal
this copy bit for bit: ``array_equal`` on ``per_packet`` and ``==`` on
``idle_energy``. Import it like ``conftest``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ModelError, TraceError
from repro.radio.attribution import TailPolicy
from repro.radio.base import RadioModel
from repro.trace.arrays import PacketArray
from repro.trace.packet import Direction

#: Block length of :func:`blocked_sum` — the float reduction unit shared
#: by the batch engine and the streaming engine's idle accumulator.
SUM_BLOCK = 8192


def blocked_sum(values: np.ndarray, block: int = SUM_BLOCK) -> float:
    """Sum ``values`` in fixed blocks aligned to the array start.

    ``float(values.sum())`` associates differently for every array
    length, so a streamed consumer that sees the same values in chunks
    could never reproduce it bit-for-bit. Summing block-by-block (one
    ``np.sum`` per ``block`` values, partials folded left-to-right)
    gives a reduction any chunking can replay exactly: a streaming
    accumulator that buffers values to the same absolute block
    boundaries performs the identical sequence of float additions (see
    :class:`repro.radio.streaming.StreamingAttribution`).
    """
    total = 0.0
    for start in range(0, len(values), block):
        total += float(values[start : start + block].sum())
    return total


@dataclass
class PacketEnergy:
    """Per-packet energy components over one device timeline."""

    model: RadioModel
    window: Tuple[float, float]
    transfer: np.ndarray
    tail: np.ndarray
    promotion: np.ndarray
    idle_energy: float

    @property
    def per_packet(self) -> np.ndarray:
        """Total energy attributed to each packet (J)."""
        return self.transfer + self.tail + self.promotion

    @property
    def attributed_energy(self) -> float:
        """Total energy attributed to packets (J)."""
        return float(self.per_packet.sum())

    @property
    def total_energy(self) -> float:
        """Attributed plus idle energy: full radio consumption (J)."""
        return self.attributed_energy + self.idle_energy

    def __len__(self) -> int:
        return len(self.transfer)


def transfer_energy_vector(
    model: RadioModel, packets: PacketArray
) -> np.ndarray:
    """Per-packet transfer energy: linear in bytes, by direction.

    One cheap vectorised pass, shared with the streaming engine, so it
    must stay a pure function of (model, packets).
    """
    sizes = packets.sizes.astype(np.float64)
    is_up = packets.directions == int(Direction.UPLINK)
    epb = np.where(is_up, model.energy_per_byte_up, model.energy_per_byte_down)
    return sizes * epb


def packet_gaps(ts: np.ndarray, window_end: float) -> np.ndarray:
    """Gap following each packet (the last runs to the window end)."""
    n = len(ts)
    gaps = np.empty(n)
    gaps[:-1] = np.diff(ts)
    gaps[-1] = window_end - ts[-1]
    return gaps


def promotion_energy_vector(
    model: RadioModel, gaps: np.ndarray
) -> np.ndarray:
    """Per-packet promotion energy: first packet, and any packet after
    a demoted gap."""
    promoted = np.empty(len(gaps), dtype=bool)
    promoted[0] = True
    promoted[1:] = gaps[:-1] > model.tail_duration
    return np.where(promoted, model.promotion_energy, 0.0)


def compute_packet_energy(
    model: RadioModel,
    packets: PacketArray,
    window: Optional[Tuple[float, float]] = None,
) -> PacketEnergy:
    """Vectorised per-packet energy over a time-sorted packet array.

    Semantics are identical to
    :meth:`repro.radio.machine.RadioStateMachine.simulate`; see that
    module's docstring for the attribution rules.
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
        return PacketEnergy(
            model,
            window,
            np.zeros(0),
            np.zeros(0),
            np.zeros(0),
            idle_energy=float((w1 - w0) * model.idle_power),
        )

    tail_d = model.tail_duration

    transfer = transfer_energy_vector(model, packets)
    gaps = packet_gaps(ts, w1)

    # Tail energy of the radio-on time after each packet.
    on_times = np.minimum(gaps, tail_d)
    tail = model.tail_energy_vector(on_times)

    promotion = promotion_energy_vector(model, gaps)

    # Idle: lead-in before the first promotion, demoted parts of
    # inter-packet gaps (minus the following promotion ramp), and the
    # post-trace remainder.
    idle_time = max(float(ts[0]) - model.promotion_duration - w0, 0.0)
    inner = gaps[:-1]
    idle_inner = np.clip(inner - tail_d - model.promotion_duration, 0.0, None)
    idle_time += blocked_sum(idle_inner)
    idle_time += max(gaps[-1] - tail_d, 0.0)
    idle_energy = float(idle_time * model.idle_power)

    return PacketEnergy(model, window, transfer, tail, promotion, idle_energy)


def _apply_tail_policy(
    tail: np.ndarray, policy: TailPolicy
) -> np.ndarray:
    if policy == TailPolicy.LAST_PACKET or len(tail) < 2:
        return tail
    adjusted = tail.astype(np.float64).copy()
    inner = adjusted[:-1] * 0.5
    adjusted[:-1] -= inner
    adjusted[1:] += inner
    return adjusted


def reference_attribution(
    model: RadioModel,
    packets: PacketArray,
    window: Optional[Tuple[float, float]] = None,
    policy: TailPolicy = TailPolicy.LAST_PACKET,
) -> Tuple[np.ndarray, float]:
    """``(per_packet, idle_energy)`` as the old batch engine gave them."""
    energy = compute_packet_energy(model, packets, window)
    tail = _apply_tail_policy(energy.tail, policy)
    return energy.transfer + energy.promotion + tail, energy.idle_energy
