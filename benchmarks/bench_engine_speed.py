"""Throughput micro-benchmarks of the core engines.

Not a paper artefact — these track that the numpy energy engine
(``attribute_energy``), flow reconstruction and state labelling stay
fast enough to run the full 623-day study, quantify the speedup over
the event-driven reference machine, and measure the
:class:`~repro.core.accounting.StudyEnergy` engine eager and lazy.
"""

import time

import numpy as np
import pytest

from repro import RunMetrics, StudyEnergy
from repro.radio import LTE_DEFAULT, RadioStateMachine, attribute_energy
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppInfo, AppRegistry, Dataset
from repro.trace.events import EventLog
from repro.trace.flow import reconstruct_flows
from repro.trace.intervals import label_packet_states
from repro.trace.trace import UserTrace


def _synthetic_packets(n=200_000, seed=3):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, n / 10.0, size=n))
    return PacketArray.from_columns(
        times,
        rng.integers(60, 1500, size=n).astype(np.uint32),
        rng.integers(0, 2, size=n).astype(np.uint8),
        rng.integers(1, 50, size=n).astype(np.uint16),
        rng.integers(1, 5000, size=n).astype(np.uint32),
    )


@pytest.fixture(scope="module")
def packets():
    return _synthetic_packets()


def test_vectorized_energy_throughput(benchmark, packets):
    result = benchmark(attribute_energy, LTE_DEFAULT, packets)
    benchmark.extra_info["packets"] = len(packets)
    assert result.total_energy > 0


def test_machine_energy_throughput(benchmark):
    small = _synthetic_packets(n=20_000)
    machine = RadioStateMachine(LTE_DEFAULT)
    result = benchmark(machine.simulate, small, None, False)
    benchmark.extra_info["packets"] = len(small)
    assert result.total_energy > 0


def test_flow_reconstruction_throughput(benchmark, packets):
    table = benchmark(reconstruct_flows, packets)
    benchmark.extra_info["flows"] = len(table)
    assert len(table) > 0


def test_engines_agree_at_scale(packets):
    """Cross-check beyond the property tests' small sizes."""
    machine = RadioStateMachine(LTE_DEFAULT).simulate(
        packets[: 30_000], record_intervals=False
    )
    vector = attribute_energy(LTE_DEFAULT, packets[: 30_000])
    np.testing.assert_allclose(machine.per_packet, vector.per_packet, rtol=1e-9)
    assert abs(machine.idle_energy - vector.idle_energy) <= 1e-9 * max(
        1.0, machine.idle_energy
    )


def test_generation_throughput(benchmark):
    from repro import StudyConfig, generate_study

    def gen():
        return generate_study(StudyConfig(n_users=2, duration_days=7.0, seed=8))

    dataset = benchmark.pedantic(gen, rounds=1, iterations=1)
    benchmark.extra_info["packets"] = dataset.total_packets
    assert dataset.total_packets > 10_000


# ----------------------------------------------------------------------
# StudyEnergy engine: eager and lazy
# ----------------------------------------------------------------------
def _attribution_dataset(n_users=6, packets_per_user=300_000):
    """A multi-user dataset heavy enough that attribution dominates.

    Built directly from synthetic packet arrays (no workload
    generation) so these benches time the attribution engine alone.
    """
    registry = AppRegistry(AppInfo(i, f"bench.app{i}", "bench") for i in range(1, 50))
    users = [
        UserTrace(
            uid,
            0.0,
            packets_per_user / 10.0,
            _synthetic_packets(n=packets_per_user, seed=uid),
            EventLog(),
        )
        for uid in range(1, n_users + 1)
    ]
    return Dataset(registry, users)


@pytest.fixture(scope="module")
def attribution_dataset():
    return _attribution_dataset()


def _attribute_seconds(dataset):
    metrics = RunMetrics()
    StudyEnergy(dataset, metrics=metrics)
    return metrics.stage_seconds("attribute")


def test_attribution_throughput(benchmark, attribution_dataset):
    study = benchmark.pedantic(
        StudyEnergy, args=(attribution_dataset,), rounds=1, iterations=1
    )
    benchmark.extra_info["packets"] = attribution_dataset.total_packets
    assert study.total_energy > 0


def test_lazy_first_answer_latency(attribution_dataset):
    """Lazy mode: time-to-first-user must not pay for the whole study."""
    start = time.perf_counter()
    study = StudyEnergy(attribution_dataset, lazy=True)
    study.user_result(study.user_ids[0])
    t_first = time.perf_counter() - start
    t_all = _attribute_seconds(attribution_dataset)
    n = len(study.user_ids)
    print(
        f"\nlazy first-user answer {t_first:.3f}s vs full study {t_all:.3f}s "
        f"({n} users)"
    )
    # Generous bound: one user's work plus constant overhead, not n users'.
    assert t_first < t_all * (2.5 / n) + 0.25
