"""Per-app energy attribution.

The paper's rule (§3.1): *"we assign any tail energy to the last packet
sent during the tail period to avoid double-counting energy when there
are multiple concurrent flows. In this way, the total cellular network
energy consumed by each device is the sum of the energy assigned to each
app."* That rule is :attr:`TailPolicy.LAST_PACKET` and is the default
everywhere; :attr:`TailPolicy.SPLIT_ADJACENT` is an alternative used by
the ablation bench to show how sensitive per-app numbers are to the
attribution choice (totals are conserved under both).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.keyed import fold_totals, split_app_state
from repro.radio.base import RadioModel
from repro.radio.vectorized import PacketEnergy, compute_packet_energy
from repro.trace.arrays import PacketArray


class TailPolicy(Enum):
    """How inter-packet radio-on (tail) energy is attributed."""

    #: Paper's rule: whole gap's tail energy to the packet before it.
    LAST_PACKET = "last-packet"
    #: Split each inner gap's tail energy between the packets on both
    #: sides (the trailing full tail still goes to the final packet).
    SPLIT_ADJACENT = "split-adjacent"


@dataclass
class AttributionResult:
    """Per-packet energies plus grouped views."""

    packets: PacketArray
    energy: PacketEnergy
    policy: TailPolicy
    tail: np.ndarray  # policy-adjusted tail energy per packet

    @cached_property
    def per_packet(self) -> np.ndarray:
        """Total energy attributed to each packet under the policy.

        Computed on first read and read-only from then on.
        """
        total = self.energy.transfer + self.energy.promotion + self.tail
        total.setflags(write=False)
        return total

    @property
    def attributed_energy(self) -> float:
        """Total attributed (per-app) energy."""
        return float(self.per_packet.sum())

    @property
    def total_energy(self) -> float:
        """Attributed plus idle energy."""
        return self.attributed_energy + self.energy.idle_energy

    def energy_by_app(self) -> Dict[int, float]:
        """Joules attributed to each app id."""
        keys, totals = fold_totals(self.packets.apps, self.per_packet)
        return dict(zip(keys.tolist(), totals.tolist()))

    def energy_by_app_state(self) -> Dict[Tuple[int, int], float]:
        """Joules per (app id, process-state value) pair.

        Requires packets to have been state-labelled first.
        """
        keys, totals = fold_totals(
            self.packets.apps, self.per_packet, self.packets.states
        )
        return {
            split_app_state(k): v
            for k, v in zip(keys.tolist(), totals.tolist())
        }


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


def attribute_energy(
    model: RadioModel,
    packets: PacketArray,
    window: Optional[Tuple[float, float]] = None,
    policy: TailPolicy = TailPolicy.LAST_PACKET,
) -> AttributionResult:
    """Compute and attribute radio energy for one device timeline.

    ``packets`` must be the *merged* timeline of every app on the device:
    the radio is shared, so gaps — and therefore tails — only make sense
    device-wide. Per-app energies fall out of the per-packet attribution.
    """
    energy = compute_packet_energy(model, packets, window)
    tail = _apply_tail_policy(energy.tail, policy)
    return AttributionResult(packets, energy, policy, tail)
