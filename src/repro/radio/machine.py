"""Event-driven radio state-machine simulator.

The independent scalar reference engine: walks a time-sorted packet
sequence through the radio model's state machine, one packet at a time,
producing

* per-packet energy components (transfer, tail, promotion),
* unattributed idle energy, and
* a :class:`~repro.radio.base.RadioInterval` log of the radio's power
  timeline (used for Fig 4-style visualisations and the in-lab harness).

Semantics (shared exactly with the numpy engine in
:mod:`repro.radio.attribution`, which the property tests enforce):

* a packet arriving more than ``tail_duration`` after the previous one
  (or the first packet) triggers a full promotion, charged to it;
* after every packet the radio follows the tail power profile until the
  next packet or for the full tail, whichever is shorter; that "radio
  on" energy is charged to the packet *preceding* the gap — the paper's
  rule of assigning tail energy to the last packet sent before the tail;
* per-byte transfer energy is charged to each packet;
* whatever time remains in a gap after the tail (and the next packet's
  promotion ramp) is idle and attributed to no app.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ModelError, TraceError
from repro.radio.base import RadioInterval, RadioModel, RadioState
from repro.trace.arrays import PacketArray
from repro.trace.packet import Direction


@dataclass
class SimulationResult:
    """Output of one state-machine run."""

    model: RadioModel
    window: Tuple[float, float]
    transfer: np.ndarray
    tail: np.ndarray
    promotion: np.ndarray
    idle_energy: float
    intervals: List[RadioInterval] = field(default_factory=list)

    @property
    def per_packet(self) -> np.ndarray:
        """Total energy attributed to each packet."""
        return self.transfer + self.tail + self.promotion

    @property
    def attributed_energy(self) -> float:
        """Energy attributed to packets (i.e. to apps)."""
        return float(self.per_packet.sum())

    @property
    def total_energy(self) -> float:
        """Attributed plus idle energy: the whole radio's consumption."""
        return self.attributed_energy + self.idle_energy

    def time_in_state(self, state: RadioState) -> float:
        """Total interval-log seconds spent in ``state``."""
        return sum(i.duration for i in self.intervals if i.state == state)


class RadioStateMachine:
    """Exact event-driven simulator for one :class:`RadioModel`."""

    def __init__(self, model: RadioModel) -> None:
        self.model = model

    def simulate(
        self,
        packets: PacketArray,
        window: Optional[Tuple[float, float]] = None,
        record_intervals: bool = True,
    ) -> SimulationResult:
        """Run the machine over a time-sorted packet array.

        Args:
            packets: Time-sorted packets (any apps; the machine models
                the single shared radio of the device).
            window: Observation window ``(start, end)``; defaults to the
                packet span. Must contain all packets.
            record_intervals: Skip building the interval log when False
                (large traces).
        """
        if not packets.is_time_sorted():
            raise TraceError("packets must be time-sorted")
        n = len(packets)
        ts = packets.timestamps
        if window is None:
            window = (float(ts[0]), float(ts[-1])) if n else (0.0, 0.0)
        w0, w1 = window
        if w1 < w0:
            raise ModelError(f"window end {w1} before start {w0}")
        if n and (ts[0] < w0 or ts[-1] > w1):
            raise TraceError("packets outside the simulation window")

        model = self.model
        transfer = np.zeros(n)
        tail = np.zeros(n)
        promotion = np.zeros(n)
        idle_energy = 0.0
        intervals: List[RadioInterval] = []

        def log_idle(start: float, end: float) -> None:
            if record_intervals and end > start:
                intervals.append(
                    RadioInterval(start, end, RadioState.IDLE, model.idle_power)
                )

        def log_promotion(at: float) -> None:
            if record_intervals and model.promotion_duration > 0:
                intervals.append(
                    RadioInterval(
                        max(at - model.promotion_duration, w0),
                        at,
                        RadioState.PROMOTION,
                        model.promotion_power,
                    )
                )

        def log_tail(start: float, on_time: float) -> None:
            if not record_intervals or on_time <= 0:
                return
            cursor = start
            remaining = on_time
            for phase_idx, phase in enumerate(model.tail_phases):
                spent = min(remaining, phase.duration)
                intervals.append(
                    RadioInterval(
                        cursor,
                        cursor + spent,
                        RadioState.TAIL,
                        phase.power,
                        phase=phase_idx,
                    )
                )
                cursor += spent
                remaining -= spent
                if remaining <= 0:
                    break

        if n == 0:
            log_idle(w0, w1)
            idle_energy = (w1 - w0) * model.idle_power
            return SimulationResult(
                model, window, transfer, tail, promotion, idle_energy, intervals
            )

        sizes = packets.sizes
        dirs = packets.directions
        tail_d = model.tail_duration

        # Idle lead-in before the first packet's promotion ramp.
        lead_idle = max(float(ts[0]) - model.promotion_duration - w0, 0.0)
        idle_energy += lead_idle * model.idle_power
        log_idle(w0, w0 + lead_idle)

        for i in range(n):
            t_i = float(ts[i])
            promoted = i == 0 or (t_i - float(ts[i - 1])) > tail_d
            if promoted:
                promotion[i] = model.promotion_energy
                log_promotion(t_i)
            transfer[i] = model.transfer_energy(
                int(sizes[i]), Direction(int(dirs[i]))
            )
            boundary = float(ts[i + 1]) if i + 1 < n else w1
            gap = boundary - t_i
            on_time = min(gap, tail_d)
            tail[i] = model.tail_energy(on_time)
            log_tail(t_i, on_time)
            if gap > tail_d:
                next_promo = model.promotion_duration if i + 1 < n else 0.0
                idle_time = max(gap - tail_d - next_promo, 0.0)
                idle_energy += idle_time * model.idle_power
                log_idle(t_i + on_time, t_i + on_time + idle_time)

        return SimulationResult(
            model, window, transfer, tail, promotion, idle_energy, intervals
        )
