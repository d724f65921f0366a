"""§5 what-if analyses: kill policy, Doze, batching."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.policy import (
    batching_savings,
    doze_savings,
    kill_policy_savings,
    killed_days,
    max_bounded_run,
    savings_on_affected_days,
    total_savings,
)


class TestKilledDays:
    def test_kill_after_three_idle_days(self):
        fg = np.array([1, 0, 0, 0, 0, 1, 0], dtype=bool)
        bg = np.array([0, 1, 1, 1, 1, 0, 1], dtype=bool)
        killed = killed_days(fg, bg, idle_days=3)
        assert killed.tolist() == [False, False, False, True, True, False, False]

    def test_foreground_resets_counter(self):
        fg = np.array([0, 0, 1, 0, 0, 0, 0], dtype=bool)
        bg = np.ones(7, dtype=bool)
        killed = killed_days(fg, bg, idle_days=3)
        assert killed.tolist() == [False, False, False, False, False, True, True]

    def test_dead_app_stays_dead_without_fg(self):
        fg = np.zeros(8, dtype=bool)
        bg = np.array([1, 1, 1, 0, 0, 0, 1, 1], dtype=bool)
        killed = killed_days(fg, bg, idle_days=3)
        # Once dead, silence doesn't revive it.
        assert killed[3:].all()

    def test_no_background_traffic_never_killed(self):
        fg = np.zeros(5, dtype=bool)
        bg = np.zeros(5, dtype=bool)
        assert not killed_days(fg, bg, 3).any()


class TestMaxBoundedRun:
    def test_basic_run(self):
        fg = np.array([1, 0, 0, 0, 1], dtype=bool)
        bg_only = np.array([0, 1, 1, 1, 0], dtype=bool)
        assert max_bounded_run(fg, bg_only) == 3

    def test_run_must_be_bounded_by_fg(self):
        fg = np.array([0, 0, 0, 1], dtype=bool)
        bg_only = np.array([1, 1, 1, 0], dtype=bool)
        assert max_bounded_run(fg, bg_only) == 0  # no fg before the run

    def test_silent_day_breaks_run(self):
        fg = np.array([1, 0, 0, 0, 0, 1], dtype=bool)
        bg_only = np.array([0, 1, 0, 1, 1, 0], dtype=bool)
        assert max_bounded_run(fg, bg_only) == 2


def test_kill_policy_end_to_end(medium_study):
    result = kill_policy_savings(medium_study, "com.sina.weibo")
    assert result.per_user
    assert 0.0 <= result.pct_background_only_days <= 100.0
    assert result.max_consecutive_background_days >= 0
    assert 0.0 <= result.avg_energy_reduction_pct <= 100.0
    for outcome in result.per_user:
        assert outcome.app_energy_after <= outcome.app_energy_before + 1e-9


def test_rarely_used_app_saves_more_than_daily_app(medium_study):
    weibo = kill_policy_savings(medium_study, "com.sina.weibo")
    espn = kill_policy_savings(medium_study, "com.espn.score_center")
    assert (
        weibo.avg_energy_reduction_pct > espn.avg_energy_reduction_pct
    )


def test_longer_threshold_saves_less(medium_study):
    three = kill_policy_savings(medium_study, "com.sina.weibo", idle_days=3)
    seven = kill_policy_savings(medium_study, "com.sina.weibo", idle_days=7)
    assert seven.avg_energy_reduction_pct <= three.avg_energy_reduction_pct + 1e-9


def test_kill_policy_validation(medium_study):
    with pytest.raises(AnalysisError):
        kill_policy_savings(medium_study, "com.sina.weibo", idle_days=0)


def test_total_savings_bounds(medium_study):
    result = total_savings(medium_study)
    assert 0.0 <= result.overall_pct < 100.0
    assert result.total_after <= result.total_before
    assert len(result.per_user_pct) == len(medium_study.user_ids)


def test_total_savings_single_app_smaller_than_all(medium_study):
    one = total_savings(medium_study, apps=["com.sina.weibo"])
    everything = total_savings(medium_study)
    assert one.overall_pct <= everything.overall_pct + 1e-9


def test_savings_on_affected_days(medium_study):
    pct = savings_on_affected_days(medium_study, "com.sina.weibo")
    assert 0.0 < pct < 100.0


def test_doze_savings(medium_study):
    result = doze_savings(medium_study, screen_off_threshold=3600.0)
    assert result.total_after <= result.total_before
    assert result.overall_pct > 0  # overnight background traffic exists


def test_doze_whitelist_reduces_savings(medium_study):
    plain = doze_savings(medium_study)
    exempted = doze_savings(
        medium_study,
        whitelist=["com.sec.spp.push", "com.android.email"],
    )
    assert exempted.overall_pct <= plain.overall_pct + 1e-9


def test_doze_threshold_monotone(medium_study):
    aggressive = doze_savings(medium_study, screen_off_threshold=600.0)
    lenient = doze_savings(medium_study, screen_off_threshold=4 * 3600.0)
    assert lenient.overall_pct <= aggressive.overall_pct + 1e-9


def test_batching_savings(medium_study):
    pct = batching_savings(medium_study, "com.sina.weibo", target_period=3600.0)
    assert 0.0 < pct <= 100.0
    # Batching a chatty 7-min updater to hourly kills most of its tails.
    assert pct > 40.0


def test_batching_monotone_in_period(medium_study):
    hourly = batching_savings(medium_study, "com.sina.weibo", 3600.0)
    daily = batching_savings(medium_study, "com.sina.weibo", 86400.0)
    assert daily >= hourly - 1e-9


def test_batching_validation(medium_study):
    with pytest.raises(AnalysisError):
        batching_savings(medium_study, "com.sina.weibo", target_period=0.0)


class TestOsCoalescing:
    def test_saves_energy_without_dropping_traffic(self, medium_study):
        from repro.policy import os_coalescing_savings

        result = os_coalescing_savings(medium_study, period=1800.0)
        assert result.total_after < result.total_before
        assert result.savings_pct > 20.0
        assert result.moved_packets > 0
        # Delay averages about half the window.
        assert 0.2 * 1800.0 < result.mean_delay < 0.8 * 1800.0

    def test_longer_window_saves_more(self, medium_study):
        from repro.policy import os_coalescing_savings

        short = os_coalescing_savings(medium_study, period=600.0)
        long = os_coalescing_savings(medium_study, period=3600.0)
        assert long.savings_pct > short.savings_pct
        assert long.mean_delay > short.mean_delay

    def test_validation(self, medium_study):
        from repro.policy import os_coalescing_savings

        with pytest.raises(AnalysisError):
            os_coalescing_savings(medium_study, period=0.0)


class TestFrequencyCap:
    def test_cap_saves_energy(self, medium_study):
        from repro.policy import frequency_cap_savings

        result = frequency_cap_savings(medium_study, min_period=1800.0)
        assert result.total_after < result.total_before
        assert result.overall_pct > 10.0  # chatty background is common

    def test_stricter_cap_saves_more(self, medium_study):
        from repro.policy import frequency_cap_savings

        loose = frequency_cap_savings(medium_study, min_period=600.0)
        strict = frequency_cap_savings(medium_study, min_period=3600.0)
        assert strict.overall_pct >= loose.overall_pct - 1e-9

    def test_validation(self, medium_study):
        from repro.policy import frequency_cap_savings

        with pytest.raises(AnalysisError):
            frequency_cap_savings(medium_study, min_period=0.0)


def _without_screen_events(dataset):
    """The same study with every screen event removed."""
    from repro.trace.dataset import Dataset
    from repro.trace.events import EventLog
    from repro.trace.trace import UserTrace

    users = []
    for trace in dataset:
        events = trace.events
        users.append(
            UserTrace(
                trace.user_id,
                trace.start,
                trace.end,
                trace.packets,
                EventLog.from_arrays(
                    events.process, events.screen[:0], events.input
                ),
            )
        )
    return Dataset(dataset.registry, users)


def test_doze_without_screen_events_drops_nothing():
    """No screen event means no screen-off time: the identity transform."""
    from repro import StudyConfig, StudyEnergy, generate_study
    from repro.policy import DozePolicy, PolicyContext, evaluate_policy

    study = StudyEnergy(
        _without_screen_events(
            generate_study(StudyConfig(n_users=2, duration_days=2.0, seed=3))
        )
    )
    for trace in study.dataset:
        context = PolicyContext(
            index=study.index_for(trace.user_id),
            start=trace.start,
            end=trace.end,
            id_of=study.dataset.registry.id_of,
        )
        out = DozePolicy(screen_off_threshold=60.0).transform(
            trace.packets, context
        )
        assert out.packets is trace.packets
    result = evaluate_policy(study, DozePolicy())
    assert result.savings.total_after == result.savings.total_before
    assert result.dropped_packets == 0


def _study_with_packet_at_end(tmp_path):
    """One user whose last packet sits exactly at the window end, as
    ``repro import`` builds it (the horizon rounds up to a whole day)."""
    from repro import StudyEnergy
    from repro.trace.io_text import dataset_from_csv

    packets = tmp_path / "edge_p.csv"
    events = tmp_path / "edge_e.csv"
    packets.write_text(
        "timestamp,size,direction,app,conn\n"
        "10.0,1000,down,com.a,1\n"
        "20.0,400,up,com.b,2\n"
        "43200.0,1500,down,com.a,1\n"
        "86400.0,300,down,com.a,1\n"
    )
    events.write_text(
        "timestamp,kind,app,value\n"
        "0.0,process,com.a,foreground\n"
        "0.0,process,com.b,service\n"
        "30.0,process,com.a,background\n"
    )
    dataset = dataset_from_csv([(packets, events)])
    trace = next(iter(dataset))
    assert trace.end == trace.packets.timestamps[-1] == 86400.0
    return StudyEnergy(dataset)


def test_kill_counts_a_packet_at_end_in_the_last_day(tmp_path):
    from repro.policy import KillIdlePolicy, evaluate_policy

    study = _study_with_packet_at_end(tmp_path)
    app_id = study.dataset.registry.id_of("com.a")
    fg, bg = study.app_days_with_traffic(1, app_id)
    assert fg.tolist() == [True] and bg.tolist() == [True]
    result = kill_policy_savings(study, "com.a", idle_days=1)
    assert result.per_user[0].killed_days == 0
    assert result.avg_energy_reduction_pct == 0.0
    # com.b only ever runs in the background: its one day is killed.
    savings = total_savings(study, idle_days=1)
    assert savings.total_after < savings.total_before
    evaluated = evaluate_policy(study, KillIdlePolicy(idle_days=1))
    assert evaluated.savings == savings
    assert evaluated.dropped_packets == 1
