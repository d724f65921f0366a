"""Radio power models and energy engines.

Implements the "standard power model for LTE" the paper uses ([16] Huang
et al. MobiSys'12, [22] Qian et al. MobiSys'11): an RRC state machine
with a promotion delay, a high-power tail after each transfer, and
throughput-linear transfer power, plus comparable 3G/UMTS and WiFi PSM
models.

Two engines compute energy from packet timelines:

* :mod:`repro.radio.machine` -- an exact event-driven state machine that
  also produces a state-interval log (used for Fig 4-style timelines and
  in-lab experiments), and the independent scalar reference;
* :mod:`repro.radio.attribution` -- the numpy engine for
  million-packet traces, property-tested to agree with the machine. It
  applies the paper's per-app attribution rule: transfer energy per
  packet, tail energy to the last packet before the tail, promotion
  energy to the packet that triggered it. Whole traces go through
  :func:`~repro.radio.attribution.attribute_energy`, chunked streams
  through :mod:`repro.radio.streaming`, and both call one kernel.
"""

from repro.radio.base import (
    RadioModel,
    TailPhase,
    RadioState,
    RadioInterval,
    energy_per_byte_from_throughput_curve,
)
from repro.radio.lte import lte_model, LTE_DEFAULT, lte_fast_dormancy_model
from repro.radio.nr import nr_model, NR_DEFAULT
from repro.radio.umts import umts_model, UMTS_DEFAULT
from repro.radio.wifi import wifi_model, WIFI_DEFAULT
from repro.radio.machine import RadioStateMachine, SimulationResult
from repro.radio.registry import available_models, get_model
from repro.radio.streaming import (
    FinalizedChunk,
    RadioCarry,
    StreamingAttribution,
)
from repro.radio.attribution import AttributionResult, TailPolicy, attribute_energy

__all__ = [
    "AttributionResult",
    "FinalizedChunk",
    "LTE_DEFAULT",
    "NR_DEFAULT",
    "RadioCarry",
    "RadioInterval",
    "RadioModel",
    "RadioState",
    "RadioStateMachine",
    "SimulationResult",
    "StreamingAttribution",
    "TailPhase",
    "TailPolicy",
    "UMTS_DEFAULT",
    "WIFI_DEFAULT",
    "attribute_energy",
    "available_models",
    "energy_per_byte_from_throughput_curve",
    "get_model",
    "lte_fast_dormancy_model",
    "lte_model",
    "nr_model",
    "umts_model",
    "wifi_model",
]
