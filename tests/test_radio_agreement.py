"""Property-based agreement between the energy engines.

The event-driven machine is the independent scalar reference: the
frozen copy of the old batch engine (``radio_reference``) must agree
with it on every component, and the one numpy engine on every
per-packet total, for any packet timeline, under every model. The one
engine must equal the frozen copy bit for bit, whole-trace through
``attribute_energy`` and streamed through ``StreamingAttribution`` for
any chunk split of the same timeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.radio.attribution import (
    SUM_BLOCK,
    TailPolicy,
    attribute_energy,
    inner_idle,
)
from repro.radio.lte import LTE_DEFAULT, lte_fast_dormancy_model, lte_model
from repro.radio.machine import RadioStateMachine
from repro.radio.nr import NR_DEFAULT
from repro.radio.streaming import StreamingAttribution
from repro.radio.umts import UMTS_DEFAULT
from repro.radio.wifi import WIFI_DEFAULT
from repro.trace.arrays import PacketArray

from radio_reference import (
    blocked_sum,
    compute_packet_energy,
    reference_attribution,
)

MODELS = [
    LTE_DEFAULT,
    lte_model(drx_detail=True),
    lte_fast_dormancy_model(),
    UMTS_DEFAULT,
    WIFI_DEFAULT,
    NR_DEFAULT,
]


@st.composite
def packet_timelines(draw):
    """Random sorted packet timelines with adversarial gap structure."""
    n = draw(st.integers(min_value=0, max_value=60))
    # Gaps chosen to straddle tail boundaries (tiny, tail-ish, huge).
    gaps = draw(
        st.lists(
            st.one_of(
                st.floats(0.0, 0.5),
                st.floats(5.0, 20.0),
                st.floats(50.0, 5000.0),
            ),
            min_size=n,
            max_size=n,
        )
    )
    start = draw(st.floats(0.0, 100.0))
    times = np.cumsum(np.array([start] + gaps))[: n or 0]
    if n == 0:
        times = np.empty(0)
    sizes = np.array(
        draw(st.lists(st.integers(40, 2_000_000), min_size=n, max_size=n)),
        dtype=np.uint32,
    )
    dirs = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8
    )
    apps = np.array(
        draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), dtype=np.uint16
    )
    packets = PacketArray.from_columns(times, sizes, dirs, apps)
    end = float(times[-1]) + draw(st.floats(0.0, 1000.0)) if n else 100.0
    return packets, (0.0, end)


def _close(a, b):
    return a == b or abs(a - b) < 1e-9 * max(1.0, a)


@given(data=packet_timelines(), model_idx=st.integers(0, len(MODELS) - 1))
@settings(max_examples=120, deadline=None)
def test_engines_agree(data, model_idx):
    packets, window = data
    model = MODELS[model_idx]
    machine = RadioStateMachine(model).simulate(
        packets, window=window, record_intervals=False
    )
    vector = compute_packet_energy(model, packets, window=window)
    np.testing.assert_allclose(machine.transfer, vector.transfer, rtol=1e-9)
    np.testing.assert_allclose(machine.tail, vector.tail, rtol=1e-9)
    np.testing.assert_allclose(machine.promotion, vector.promotion, rtol=1e-9)
    assert _close(machine.idle_energy, vector.idle_energy)
    result = attribute_energy(model, packets, window=window)
    np.testing.assert_allclose(
        machine.per_packet, result.per_packet, rtol=1e-9
    )
    assert _close(machine.idle_energy, result.idle_energy)


@given(
    data=packet_timelines(),
    model_idx=st.integers(0, len(MODELS) - 1),
    policy=st.sampled_from(list(TailPolicy)),
)
@settings(max_examples=120, deadline=None)
def test_one_engine_equals_frozen_reference(data, model_idx, policy):
    """One whole-trace ``attribute_energy`` call is bit-identical to
    the frozen batch engine, for every model and both policies."""
    packets, window = data
    model = MODELS[model_idx]
    result = attribute_energy(model, packets, window=window, policy=policy)
    per_packet, idle = reference_attribution(model, packets, window, policy)
    assert np.array_equal(result.per_packet, per_packet)
    assert result.idle_energy == idle
    assert type(result.idle_energy) is float


@pytest.mark.parametrize("policy", list(TailPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_gap_of_exactly_the_tail_does_not_promote(model, policy):
    """A packet exactly ``tail_duration`` after the previous one still
    finds the radio in its tail: no second promotion."""
    tail_d = model.tail_duration
    times = np.array([0.0, tail_d, 3 * tail_d + 1.0])
    assert times[1] - times[0] == tail_d
    packets = PacketArray.from_columns(
        times,
        np.full(3, 1000, np.uint32),
        np.zeros(3, np.uint8),
        np.array([1, 2, 1], np.uint16),
    )
    window = (0.0, float(times[-1]) + 2 * tail_d)
    promotion = model.promotion_energy
    for engine in (
        compute_packet_energy(model, packets, window),
        RadioStateMachine(model).simulate(packets, window, False),
    ):
        assert engine.promotion.tolist() == [promotion, 0.0, promotion]
    result = attribute_energy(model, packets, window=window, policy=policy)
    per_packet, idle = reference_attribution(model, packets, window, policy)
    assert np.array_equal(result.per_packet, per_packet)
    assert result.idle_energy == idle
    streamed, streamed_idle = _stream(model, policy, window, packets, [1, 2])
    assert np.array_equal(streamed, per_packet)
    assert streamed_idle == idle


def test_idle_folds_in_blocks_not_one_sum():
    """More inner gaps than ``SUM_BLOCK``: whole-trace idle time is the
    block-aligned fold, whose floats differ here from one ``np.sum``."""
    rng = np.random.default_rng(0)
    n = 3 * SUM_BLOCK + 100
    times = np.cumsum(rng.uniform(20.0, 900.0, n))
    packets = PacketArray.from_columns(
        times,
        np.full(n, 100, np.uint32),
        np.ones(n, np.uint8),
        np.ones(n, np.uint16),
    )
    window = (0.0, float(times[-1]) + 50.0)
    idle_gaps = inner_idle(LTE_DEFAULT, np.diff(times))
    assert blocked_sum(idle_gaps) != float(idle_gaps.sum())
    result = attribute_energy(LTE_DEFAULT, packets, window=window)
    per_packet, idle = reference_attribution(LTE_DEFAULT, packets, window)
    assert np.array_equal(result.per_packet, per_packet)
    assert result.idle_energy == idle


@given(data=packet_timelines())
@settings(max_examples=60, deadline=None)
def test_energy_nonnegative_and_conserved(data):
    packets, window = data
    result = attribute_energy(LTE_DEFAULT, packets, window=window)
    assert np.all(result.per_packet >= 0)
    assert result.idle_energy >= 0
    assert result.total_energy >= result.attributed_energy


@given(data=packet_timelines())
@settings(max_examples=60, deadline=None)
def test_removing_a_packet_costs_at_most_one_promotion(data):
    """Dropping one packet is near-monotone: it can raise total energy
    only by bridging — the removed packet held one active period
    together, and splitting it trades cheap tail time (1.06 W) for a
    fresh promotion (1.2107 W). One removal splits at most one active
    period, so the increase is bounded by a single promotion's energy;
    everything else (transfer, tail truncation, idle) only saves."""
    packets, window = data
    if len(packets) < 2:
        return
    full = attribute_energy(LTE_DEFAULT, packets, window=window)
    keep = np.ones(len(packets), dtype=bool)
    keep[len(packets) // 2] = False
    reduced = attribute_energy(
        LTE_DEFAULT, packets.select(keep), window=window
    )
    one_promotion = (
        LTE_DEFAULT.promotion_duration * LTE_DEFAULT.promotion_power
    )
    assert reduced.total_energy <= full.total_energy + one_promotion + 1e-9


@given(data=packet_timelines())
@settings(max_examples=60, deadline=None)
def test_tail_bounded_by_full_tail(data):
    packets, window = data
    vector = compute_packet_energy(LTE_DEFAULT, packets, window=window)
    assert np.all(vector.tail <= LTE_DEFAULT.full_tail_energy + 1e-12)
    # Under the paper's rule a packet's total exceeds its transfer and
    # promotion by its own tail alone.
    result = attribute_energy(LTE_DEFAULT, packets, window=window)
    fixed = vector.transfer + vector.promotion
    assert np.all(
        result.per_packet - fixed <= LTE_DEFAULT.full_tail_energy + 1e-12
    )


# ----------------------------------------------------------------------
# Streaming differential: any chunk split, bit-identical settlement
# ----------------------------------------------------------------------
def _stream(model, policy, window, packets, cuts):
    """Feed ``packets`` split at ``cuts``; the settled per-packet array
    and the finished idle energy."""
    bounds = [0] + list(cuts) + [len(packets)]
    sim = StreamingAttribution(model, policy, window)
    pieces = [
        sim.feed(packets[lo:hi]).per_packet
        for lo, hi in zip(bounds, bounds[1:])
    ]
    final, idle = sim.finish()
    pieces.append(final.per_packet)
    return np.concatenate(pieces), idle


@given(
    data=packet_timelines(),
    model_idx=st.integers(0, len(MODELS) - 1),
    policy_idx=st.integers(0, 1),
    cut_seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=120, deadline=None)
def test_streaming_settles_bit_identical_for_any_chunk_split(
    data, model_idx, policy_idx, cut_seed
):
    """Feeding random chunk splits through StreamingAttribution yields
    exactly — np.array_equal, not allclose — the batch per-packet
    attribution and idle energy, and the frozen reference's, for every
    model including NR."""
    packets, window = data
    model = MODELS[model_idx]
    policy = (TailPolicy.LAST_PACKET, TailPolicy.SPLIT_ADJACENT)[policy_idx]
    batch = attribute_energy(model, packets, window=window, policy=policy)
    per_packet, idle_ref = reference_attribution(model, packets, window, policy)

    rng = np.random.default_rng(cut_seed)
    n = len(packets)
    n_cuts = int(rng.integers(0, 6))
    cuts = sorted(set(rng.integers(0, n + 1, size=n_cuts).tolist()))
    streamed, idle = _stream(model, policy, window, packets, cuts)

    assert np.array_equal(streamed, batch.per_packet)
    assert idle == batch.idle_energy
    assert np.array_equal(streamed, per_packet)
    assert idle == idle_ref


def test_nr_streaming_carries_mid_tail_across_chunks():
    """A chunk boundary landing mid-CDRX-tail: the pending packet's
    tail must settle against the *next chunk's* first packet, 4 s into
    NR's 10 s tail, identically to the batch engine."""
    times = np.array([10.0, 14.0, 100.0])
    sizes = np.array([1000, 1000, 1000], dtype=np.uint32)
    dirs = np.zeros(3, dtype=np.uint8)
    apps = np.array([1, 2, 1], dtype=np.uint16)
    packets = PacketArray.from_columns(times, sizes, dirs, apps)
    window = (0.0, 200.0)
    batch = attribute_energy(
        NR_DEFAULT, packets, window=window, policy=TailPolicy.SPLIT_ADJACENT
    )
    sim = StreamingAttribution(
        NR_DEFAULT, TailPolicy.SPLIT_ADJACENT, window
    )
    first = sim.feed(packets[:1])  # pending: packet 0, tail open
    assert len(first) == 0
    second = sim.feed(packets[1:])  # settles 0 (4 s gap) and 1 (full tail)
    final, idle = sim.finish()
    streamed = np.concatenate([second.per_packet, final.per_packet])
    assert np.array_equal(streamed, batch.per_packet)
    assert idle == batch.idle_energy
    # The 4 s gap spans CDRX phases 1+2 and one second of phase 3: the
    # settled tail is strictly between one phase and the full tail.
    tail = compute_packet_energy(NR_DEFAULT, packets, window).tail
    assert 0.0 < tail[0] < NR_DEFAULT.full_tail_energy
    per_packet, idle_ref = reference_attribution(
        NR_DEFAULT, packets, window, TailPolicy.SPLIT_ADJACENT
    )
    assert np.array_equal(streamed, per_packet)
    assert idle == idle_ref
