"""The numpy engine and attribution policies.

Hand-computed components are checked on the frozen reference engine
(``radio_reference``), and their sums on the one engine's
``per_packet`` and ``idle_energy``.
"""

import numpy as np
import pytest

from repro.keyed import STATE_BASE, KeyedTotals
from repro.radio.attribution import TailPolicy, attribute_energy
from repro.radio.lte import LTE_DEFAULT
from repro.trace.events import ProcessState
from repro.trace.packet import Direction

from conftest import make_packets
from radio_reference import compute_packet_energy
from test_radio_machine import TOY


def test_empty_trace():
    result = attribute_energy(TOY, make_packets([]), window=(0.0, 50.0))
    assert result.total_energy == pytest.approx(0.5)
    assert result.idle_energy == pytest.approx(0.5)
    assert len(result.per_packet) == 0


def test_matches_hand_computation():
    packets = make_packets([(50.0, 1000, Direction.DOWNLINK, 1)])
    pe = compute_packet_energy(TOY, packets, window=(0.0, 100.0))
    assert pe.promotion[0] == pytest.approx(2.0)
    assert pe.tail[0] == pytest.approx(10.0)
    assert pe.idle_energy == pytest.approx(0.89)
    result = attribute_energy(TOY, packets, window=(0.0, 100.0))
    # promotion 2 J + transfer 1000 B * 1e-6 J/B + full tail 10 J.
    assert result.per_packet.tolist() == pytest.approx([2.0 + 0.001 + 10.0])
    assert result.idle_energy == pytest.approx(0.89)


def test_attribution_conservation(packets_two_apps):
    result = attribute_energy(LTE_DEFAULT, packets_two_apps, window=(0.0, 200.0))
    by_app = result.energy_by_app()
    assert sum(by_app.values()) == pytest.approx(result.attributed_energy)
    assert result.total_energy == pytest.approx(
        result.attributed_energy + result.idle_energy
    )


def test_attribution_by_app_state(packets_two_apps):
    packets_two_apps.data["state"] = int(ProcessState.SERVICE)
    packets_two_apps.data["state"][0] = int(ProcessState.FOREGROUND)
    result = attribute_energy(LTE_DEFAULT, packets_two_apps, window=(0.0, 200.0))
    by_app_state = KeyedTotals()
    by_app_state.add(
        packets_two_apps.apps, result.per_packet, packets_two_apps.states
    )
    totals = by_app_state.as_dict()
    assert 1 * STATE_BASE + int(ProcessState.FOREGROUND) in totals
    assert sum(totals.values()) == pytest.approx(result.attributed_energy)


def test_split_adjacent_policy_conserves_total(packets_two_apps):
    last = attribute_energy(
        LTE_DEFAULT, packets_two_apps, window=(0.0, 200.0),
        policy=TailPolicy.LAST_PACKET,
    )
    split = attribute_energy(
        LTE_DEFAULT, packets_two_apps, window=(0.0, 200.0),
        policy=TailPolicy.SPLIT_ADJACENT,
    )
    assert split.attributed_energy == pytest.approx(last.attributed_energy)
    # ...but the per-app shares move.
    assert split.energy_by_app() != pytest.approx(last.energy_by_app())


def test_split_adjacent_moves_half_inner_tail():
    packets = make_packets(
        [
            (0.0, 1000, Direction.DOWNLINK, 1),
            (5.0, 1000, Direction.DOWNLINK, 2),
        ]
    )
    last = attribute_energy(TOY, packets, window=(0.0, 30.0))
    split = attribute_energy(
        TOY, packets, window=(0.0, 30.0), policy=TailPolicy.SPLIT_ADJACENT
    )
    # Inner gap tail = 5 J fully on packet 0 under LAST_PACKET; 2.5 J
    # moves to packet 1 under SPLIT_ADJACENT. Packet 0 also pays the
    # promotion (2 J); packet 1, 5 s later, rides the tail. Each moves
    # 1000 B down (0.001 J).
    assert last.per_packet.tolist() == pytest.approx(
        [2.0 + 0.001 + 5.0, 0.001 + 10.0]
    )
    assert split.per_packet.tolist() == pytest.approx(
        [2.0 + 0.001 + 2.5, 0.001 + 10.0 + 2.5]
    )
    pe = compute_packet_energy(TOY, packets, window=(0.0, 30.0))
    assert last.idle_energy == split.idle_energy == pe.idle_energy


class TestNrModel:
    """The 5G NR CDRX model, through registry and both engines."""

    def test_registry_exposes_nr(self):
        from repro.radio.registry import available_models, get_model

        assert "nr" in available_models()
        assert "5g" in available_models()
        nr = get_model("nr")
        assert nr.name == "nr"
        assert get_model("5g").name == "nr"
        assert len(nr.tail_phases) == 3

    def test_cdrx_tail_shape(self):
        from repro.radio.nr import NR_DEFAULT

        assert NR_DEFAULT.tail_duration == pytest.approx(10.0)
        # Front-loaded: 0.1 s @ 1.75 W + 2.9 s @ 1.21 W + 7 s @ 0.64 W.
        assert NR_DEFAULT.full_tail_energy == pytest.approx(
            0.1 * 1.75 + 2.9 * 1.21 + 7.0 * 0.64
        )
        # The step-down is monotone, as CDRX sleep states must be.
        powers = [p.power for p in NR_DEFAULT.tail_phases]
        assert powers == sorted(powers, reverse=True)

    def test_per_byte_energy_from_throughput_curve(self):
        from repro.radio.nr import NR_DEFAULT

        # uplink: (240 * 40 + 1580) mW at 40 Mbps
        assert NR_DEFAULT.energy_per_byte_up == pytest.approx(
            (240.0 * 40 + 1580.0) * 1e-3 * 8.0 / (40 * 1e6)
        )
        # downlink: (7.6 * 250 + 1580) mW at 250 Mbps
        assert NR_DEFAULT.energy_per_byte_down == pytest.approx(
            (7.6 * 250 + 1580.0) * 1e-3 * 8.0 / (250 * 1e6)
        )
        # NR moves a byte far cheaper than LTE, down and up.
        assert NR_DEFAULT.energy_per_byte_down < LTE_DEFAULT.energy_per_byte_down
        assert NR_DEFAULT.energy_per_byte_up < LTE_DEFAULT.energy_per_byte_up

    def test_single_packet_hand_computation(self):
        from repro.radio.nr import NR_DEFAULT

        packets = make_packets([(50.0, 10_000, Direction.DOWNLINK, 1)])
        pe = compute_packet_energy(NR_DEFAULT, packets, window=(0.0, 100.0))
        promotion = 0.110 * 1.530
        transfer = 10_000 * NR_DEFAULT.energy_per_byte_down
        assert pe.promotion[0] == pytest.approx(promotion)
        assert pe.tail[0] == pytest.approx(NR_DEFAULT.full_tail_energy)
        assert pe.transfer[0] == pytest.approx(transfer)
        # Idle covers the whole window except the promotion lead-in and
        # the 10 s CDRX tail (the transfer itself is instantaneous).
        idle = (100.0 - 0.110 - 10.0) * 0.020
        assert pe.idle_energy == pytest.approx(idle)
        result = attribute_energy(NR_DEFAULT, packets, window=(0.0, 100.0))
        assert result.per_packet.tolist() == pytest.approx(
            [promotion + transfer + NR_DEFAULT.full_tail_energy]
        )
        assert result.idle_energy == pytest.approx(idle)

    def test_partial_tail_crosses_phase_boundary(self):
        from repro.radio.nr import NR_DEFAULT

        # 2 s gap: 0.1 s of phase 1 + 1.9 s of phase 2, no re-promotion.
        packets = make_packets(
            [
                (10.0, 1000, Direction.DOWNLINK, 1),
                (12.0, 1000, Direction.DOWNLINK, 1),
            ]
        )
        pe = compute_packet_energy(NR_DEFAULT, packets, window=(0.0, 50.0))
        partial_tail = 0.1 * 1.75 + 1.9 * 1.21
        assert pe.tail[0] == pytest.approx(partial_tail)
        assert pe.promotion[1] == 0.0
        # Packet 0 pays the promotion and the partial tail; packet 1
        # rides the tail and then pays a full one to the window end.
        transfer = 1000 * NR_DEFAULT.energy_per_byte_down
        result = attribute_energy(NR_DEFAULT, packets, window=(0.0, 50.0))
        assert result.per_packet.tolist() == pytest.approx(
            [
                NR_DEFAULT.promotion_energy + transfer + partial_tail,
                transfer + NR_DEFAULT.full_tail_energy,
            ]
        )

    def test_nr_attribution_end_to_end(self, packets_two_apps):
        from repro.radio.nr import NR_DEFAULT

        result = attribute_energy(
            NR_DEFAULT, packets_two_apps, window=(0.0, 200.0)
        )
        by_app = result.energy_by_app()
        assert sum(by_app.values()) == pytest.approx(result.attributed_energy)
        assert result.total_energy == pytest.approx(
            result.attributed_energy + result.idle_energy
        )


def test_tail_attribution_to_last_packet_avoids_double_counting():
    """Two apps alternating within one radio-on period: total device
    energy is the sum of both apps' attributed energy — the exact
    double-counting guarantee §3.1 describes."""
    packets = make_packets(
        [
            (0.0, 1000, Direction.DOWNLINK, 1),
            (2.0, 1000, Direction.DOWNLINK, 2),
            (4.0, 1000, Direction.DOWNLINK, 1),
            (6.0, 1000, Direction.DOWNLINK, 2),
        ]
    )
    result = attribute_energy(TOY, packets, window=(0.0, 30.0))
    by_app = result.energy_by_app()
    assert by_app[1] + by_app[2] == pytest.approx(result.attributed_energy)
    # Device was radio-on from 0 to 16 s (6 + full tail): sanity-check
    # the total is what one radio would plausibly consume.
    assert result.total_energy < 2.0 + 16.0 * 1.0 + 30 * 0.01 + 1.0
