"""The parallel / lazy attribution engine.

Contract under test: every knob combination (workers, lazy) produces
*bit-identical* results to the plain serial engine — the knobs may only
change when and where the work happens, never the numbers.
"""

import numpy as np
import pytest

import repro.radio.attribution as attribution
from repro import StudyEnergy
from repro.errors import AnalysisError
from repro.parallel import map_tasks, resolve_workers
from repro.radio import TailPolicy


@pytest.fixture
def counted_attribute(monkeypatch):
    """Route attribute_energy through a call counter."""
    calls = []
    real = attribution.attribute_energy

    def counting(model, packets, window=None, policy=TailPolicy.LAST_PACKET):
        calls.append(packets)
        return real(model, packets, window=window, policy=policy)

    monkeypatch.setattr(attribution, "attribute_energy", counting)
    return calls


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------
def test_parallel_identical_to_serial(small_dataset, small_study):
    parallel = StudyEnergy(small_dataset, workers=2)
    for uid in small_study.user_ids:
        a = small_study.user_result(uid)
        b = parallel.user_result(uid)
        assert np.array_equal(a.per_packet, b.per_packet)
        assert np.array_equal(a.tail, b.tail)
        assert a.energy.idle_energy == b.energy.idle_energy
        assert a.energy.window == b.energy.window
    assert parallel.total_energy == small_study.total_energy
    assert parallel.energy_by_app() == small_study.energy_by_app()


def test_workers_zero_means_cpu_count(small_dataset):
    study = StudyEnergy(small_dataset, workers=0)
    assert study.workers >= 1
    assert study.total_energy > 0


# ----------------------------------------------------------------------
# Lazy evaluation
# ----------------------------------------------------------------------
def test_lazy_defers_and_computes_each_user_once(
    small_dataset, counted_attribute
):
    study = StudyEnergy(small_dataset, lazy=True)
    assert counted_attribute == []

    uid = study.user_ids[0]
    first = study.user_result(uid)
    again = study.user_result(uid)
    assert first is again
    assert len(counted_attribute) == 1

    # A study-wide reduction materializes exactly the remaining users.
    study.total_energy
    assert len(counted_attribute) == len(small_dataset)
    study.total_energy
    study.energy_by_app()
    study.energy_by_app_state()
    assert len(counted_attribute) == len(small_dataset)


def test_lazy_totals_bit_identical_to_eager(small_dataset, small_study):
    lazy = StudyEnergy(small_dataset, lazy=True)
    # Touch users out of dataset order first: reductions must still sum
    # in dataset order, so the float totals match the eager engine bit
    # for bit.
    for uid in reversed(lazy.user_ids):
        lazy.user_result(uid)
    assert lazy.total_energy == small_study.total_energy
    assert lazy.attributed_energy == small_study.attributed_energy
    assert lazy.idle_energy == small_study.idle_energy


def test_lazy_unknown_user_raises_without_computing(
    small_dataset, counted_attribute
):
    study = StudyEnergy(small_dataset, lazy=True)
    with pytest.raises(AnalysisError):
        study.user_result(999)
    assert counted_attribute == []


def test_lazy_user_ids_and_dataset_iteration_untouched(small_dataset):
    study = StudyEnergy(small_dataset, lazy=True)
    assert study.user_ids == [t.user_id for t in small_dataset]
    assert study.bytes_by_app()  # packet-only path needs no attribution
    assert not study._results


# ----------------------------------------------------------------------
# Pool helper
# ----------------------------------------------------------------------
def _double(x):
    return 2 * x


def test_resolve_workers():
    assert resolve_workers(1) == 1
    assert resolve_workers(7) == 7
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) >= 1
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_map_tasks_serial_and_parallel_preserve_order():
    items = list(range(11))
    expected = [2 * x for x in items]
    assert map_tasks(_double, items, workers=1) == expected
    assert map_tasks(_double, items, workers=2) == expected
    assert map_tasks(_double, [5], workers=4) == [10]  # pool skipped
    assert map_tasks(_double, [], workers=4) == []
