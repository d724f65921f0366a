"""End-to-end integration: the paper's qualitative claims hold on a
generated study.

These tests run on the shared medium fixture (8 users x 21 days) and
check *shapes* — who wins, by what order, where the mass lies — not the
paper's absolute numbers (see EXPERIMENTS.md for the full-scale
comparison).
"""

import numpy as np
import pytest

from repro.core.casestudies import case_study_table
from repro.core.popularity import top10_appearance_counts, top_consumers
from repro.core.statefrac import (
    background_energy_fraction,
    state_energy_fractions,
    state_energy_share,
)
from repro.core.transitions import (
    bytes_since_foreground,
    first_minute_fractions,
    fraction_of_apps_above,
    persistence_durations,
)
from repro.policy import kill_policy_savings, total_savings
from repro.trace.events import ProcessState


def test_background_dominates_study_energy(medium_study):
    """§4: 84% of network energy is consumed in background states."""
    frac = background_energy_fraction(medium_study)
    assert 0.65 <= frac <= 0.95


def test_perceptible_minor_service_major(medium_study):
    """§4: perceptible is a small slice; service is a large one."""
    share = state_energy_share(medium_study)
    assert share[ProcessState.PERCEPTIBLE] < 0.15
    assert share[ProcessState.SERVICE] > 0.2


def test_top12_apps_mostly_background(medium_study):
    """Fig 3: for all but ~3 of the twelve hungry apps, background
    energy exceeds half of the app's total."""
    fractions = state_energy_fractions(medium_study)
    bg_states = (
        ProcessState.PERCEPTIBLE,
        ProcessState.SERVICE,
        ProcessState.BACKGROUND,
    )
    majority_bg = sum(
        1
        for by_state in fractions.values()
        if sum(by_state[s] for s in bg_states) > 0.5
    )
    assert majority_bg >= 8


def test_chrome_background_share(medium_study):
    """§4.1: about 30% of Chrome's energy is background."""
    frac = background_energy_fraction(medium_study, "com.android.chrome")
    assert 0.15 <= frac <= 0.55


def test_first_minute_criterion(medium_dataset):
    """§4.1: >80% of apps send >80% of bg bytes in the first minute."""
    fractions = first_minute_fractions(medium_dataset)
    assert fraction_of_apps_above(fractions, 0.8) >= 0.6


def test_persistence_heavy_tail(medium_dataset):
    """Fig 5: persistence is heavy-tailed, with multi-hour stragglers."""
    samples = persistence_durations(medium_dataset, app="com.android.chrome")
    durations = np.sort([s.duration for s in samples])
    assert durations[len(durations) // 2] < 5 * 60.0
    assert durations[-1] > 30 * 60.0


def test_fig6_shape(medium_dataset):
    """Fig 6: heavy first minute, periodic 5-min structure, long tail."""
    edges, totals = bytes_since_foreground(medium_dataset, bin_seconds=10.0)
    first_minute = totals[edges < 60].sum()
    any_other_minute = max(
        totals[(edges >= 60 * k) & (edges < 60 * (k + 1))].sum()
        for k in range(1, 30)
    )
    assert first_minute > any_other_minute
    # Phase-locked periodic structure: bins at multiples of 300 s carry
    # far more than their immediate neighbours on average.
    multiples = [k * 300.0 for k in range(2, 20)]
    on_peak = np.mean([totals[(edges >= m) & (edges < m + 10)].sum() for m in multiples])
    off_peak = np.mean(
        [totals[(edges >= m + 30) & (edges < m + 40)].sum() for m in multiples]
    )
    assert on_peak > 2 * off_peak
    # Long tail: background traffic continues past an hour.
    assert totals[edges > 3600].sum() > 0


def test_table1_orderings(medium_study):
    """Table 1: the paper's efficiency orderings between app pairs."""
    rows = {r.app: r for r in case_study_table(medium_study)}

    def get(name):
        row = rows.get(name)
        if row is None:
            pytest.skip(f"{name} absent from sampled study")
        return row

    weibo = get("com.sina.weibo")
    twitter = get("com.twitter.android")
    assert weibo.joules_per_mb > 10 * twitter.joules_per_mb
    assert weibo.joules_per_day > twitter.joules_per_day

    app = get("com.accuweather.android")
    widget = get("com.accuweather.widget")
    assert app.joules_per_day > 3 * widget.joules_per_day
    assert app.joules_per_mb > widget.joules_per_mb


def test_podcast_strategies(medium_study):
    """Table 1: chunked downloads (Podcastaddict) cost more energy than
    whole-episode downloads (Pocketcasts)."""
    rows = {r.app: r for r in case_study_table(medium_study)}
    chunked = rows.get("com.bambuna.podcastaddict")
    whole = rows.get("au.com.shiftyjelly.pocketcasts")
    if chunked is None or whole is None:
        pytest.skip("podcast apps absent from sampled study")
    assert chunked.joules_per_mb > whole.joules_per_mb


def test_table2_shape(medium_study):
    """Table 2: rarely-used apps have high background-only-day shares
    and meaningful kill savings; per-app savings far exceed the total."""
    weibo = kill_policy_savings(medium_study, "com.sina.weibo")
    assert weibo.pct_background_only_days > 50.0
    assert weibo.avg_energy_reduction_pct > 25.0
    overall = total_savings(medium_study)
    assert overall.overall_pct < weibo.avg_energy_reduction_pct


def test_fig1_universal_and_diverse(medium_dataset):
    counts = top10_appearance_counts(medium_dataset, min_users=1)
    n_users = len(medium_dataset)
    universal = [a for a, c in counts.items() if c >= 0.75 * n_users]
    assert universal  # media player / Facebook / Google Play analogues
    assert len(counts) >= 3 * len(universal)  # diverse tail


def test_fig2_energy_data_decoupled(medium_study):
    by_energy = {r.app: i for i, r in enumerate(top_consumers(medium_study, 15, "energy"))}
    by_data = {r.app: i for i, r in enumerate(top_consumers(medium_study, 15, "data"))}
    common = set(by_energy) & set(by_data)
    assert any(abs(by_energy[a] - by_data[a]) >= 3 for a in common)
