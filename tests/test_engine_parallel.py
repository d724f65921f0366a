"""The in-process, optionally lazy attribution engine.

Contract under test: each user's attribution is exactly one direct
:func:`~repro.radio.attribution.attribute_energy` call, eager or lazy
— laziness may only change when the work happens, never the numbers —
and ``prepare_indexes`` only changes when the indexes are built.
"""

import time

import numpy as np
import pytest

import repro.radio.attribution as attribution
from repro import StudyConfig, StudyEnergy, generate_study
from repro.errors import AnalysisError
from repro.parallel import map_tasks, resolve_workers
from repro.radio import TailPolicy, available_models, get_model
from repro.store import render_analysis

from radio_reference import reference_attribution


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
# One direct attribute_energy call per user
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", list(TailPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("name", available_models())
def test_user_results_equal_direct_attribution(small_dataset, name, policy):
    model = get_model(name)
    study = StudyEnergy(small_dataset, model=model, policy=policy)
    for trace in small_dataset:
        got = study.user_result(trace.user_id)
        want = attribution.attribute_energy(
            model, trace.packets, (trace.start, trace.end), policy
        )
        assert np.array_equal(got.per_packet, want.per_packet)
        assert got.idle_energy == want.idle_energy
        assert got.window == want.window
        assert got.policy is want.policy
        per_packet, idle = reference_attribution(
            model, trace.packets, (trace.start, trace.end), policy
        )
        assert np.array_equal(got.per_packet, per_packet)
        assert got.idle_energy == idle
    # Study totals stay Python floats, so their repr is unchanged.
    assert type(study.idle_energy) is float
    assert type(study.total_energy) is float


@pytest.mark.parametrize("workers", [0, 2, None])
def test_workers_other_than_one_raise(small_dataset, workers):
    with pytest.raises(ValueError, match="in process"):
        StudyEnergy(small_dataset, workers=workers)


def test_workers_one_is_accepted(small_dataset, small_study):
    study = StudyEnergy(small_dataset, workers=1)
    assert study.total_energy == small_study.total_energy


# ----------------------------------------------------------------------
# prepare_indexes: a serial warm-up that changes no output
# ----------------------------------------------------------------------
_INDEXED_ANALYSES = ("fig1", "fig2", "fig3", "table1")


def test_prepare_indexes_builds_everything_once():
    # A private dataset: indexes are memoized on the traces, and the
    # session fixtures' indexes may already be built.
    config = StudyConfig(n_users=3, duration_days=5.0, seed=4321)
    study = StudyEnergy(generate_study(config))
    assert not any(trace.index().is_grouped for trace in study.dataset)

    started = time.perf_counter()
    study.prepare_indexes()
    wall = time.perf_counter() - started
    for trace in study.dataset:
        index = trace.index()
        assert index.is_grouped
        assert index._fg_mask is not None and index._bg_mask is not None
    assert 0.0 < study.metrics.stage_seconds("index.build") <= wall

    def build_calls():
        return study.metrics.as_dict()["stages"]["index.build"]["calls"]

    calls, hits = build_calls(), study.metrics.counter("index.hits")
    study.prepare_indexes()
    assert build_calls() == calls
    assert study.metrics.counter("index.hits") == hits

    lazy = StudyEnergy(generate_study(config))
    for analysis in _INDEXED_ANALYSES:
        assert render_analysis(analysis, study) == render_analysis(
            analysis, lazy
        )


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

    # A study-wide reduction attributes exactly the remaining users, in
    # dataset order.
    study.total_energy
    assert len(counted_attribute) == len(small_dataset)
    remaining = [t.packets for t in small_dataset if t.user_id != uid]
    assert all(a is b for a, b in zip(counted_attribute[1:], remaining))
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


_USER_ACCESSORS = {
    "user_result": lambda study, uid: study.user_result(uid),
    "index_for": lambda study, uid: study.index_for(uid),
    "duration_days": lambda study, uid: study.duration_days(uid),
    "user_totals": lambda study, uid: study.user_totals(uid),
    "user_app_energy": lambda study, uid: study.user_app_energy(uid, 1),
    "daily_energy": lambda study, uid: study.daily_energy(uid),
    "app_days_with_traffic": (
        lambda study, uid: study.app_days_with_traffic(uid, 1)
    ),
}


@pytest.mark.parametrize("accessor", sorted(_USER_ACCESSORS))
def test_unknown_user_raises_analysis_error_from_every_accessor(
    small_dataset, counted_attribute, accessor
):
    study = StudyEnergy(small_dataset, lazy=True)
    with pytest.raises(AnalysisError, match="unknown user id 999"):
        _USER_ACCESSORS[accessor](study, 999)
    assert counted_attribute == []
    assert not study._results


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
