"""Headline statistics and robustness sweeps.

Collects the paper's single-number findings into one structure (used by
the CLI report and the benches), and provides a seed-sweep harness to
quantify how sensitive each headline is to the synthetic study's random
realisation — the reproduction's analogue of confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.accounting import StudyEnergy
from repro.core.readout import EnergyReadout, require_packet_detail
from repro.core.statefrac import background_energy_fraction
from repro.core.transitions import (
    first_minute_fractions,
    fraction_of_apps_above,
)
from repro.errors import AnalysisError, StreamError, TraceError
from repro.policy import savings_on_affected_days, total_savings


@dataclass(frozen=True)
class Headline:
    """One headline statistic with its paper reference value."""

    key: str
    description: str
    paper_value: Optional[float]
    measured: float


def totals_headline_stats(readout: EnergyReadout) -> List[Headline]:
    """The totals-tier headlines — computable from any readout.

    The 84%-background split and Chrome's ~30% need only per-(app,
    state) energy totals, so a checkpoint-loaded ingest renders them
    byte-identically to the batch engine. The remaining headlines
    (first-minute criterion, what-if savings) replay packets;
    :func:`headline_stats` appends those. Sources whose registry has
    no Chrome at all (real traces, live windows) skip the Chrome line
    rather than fail — same rule as the Weibo headline below.
    """
    headlines = [
        Headline(
            "background_fraction",
            "fraction of network energy in background states",
            0.84,
            background_energy_fraction(readout),
        ),
    ]
    try:
        headlines.append(
            Headline(
                "chrome_background_fraction",
                "fraction of Chrome's energy in background states",
                0.30,
                background_energy_fraction(readout, "com.android.chrome"),
            )
        )
    except (AnalysisError, TraceError, StreamError):
        # Registry or app absent, or the app spent nothing in this
        # window (live folds) — nothing to measure.
        pass
    return headlines


def headline_stats(study: StudyEnergy) -> List[Headline]:
    """The paper's headline numbers, measured on ``study``."""
    require_packet_detail(study, "headline_stats")
    dataset = study.dataset
    fractions = first_minute_fractions(dataset)
    headlines = totals_headline_stats(study) + [
        Headline(
            "first_minute_apps",
            "fraction of apps with >=80% of bg bytes in the first minute",
            0.84,
            fraction_of_apps_above(fractions, 0.8),
        ),
        Headline(
            "kill_total_savings_pct",
            "kill-after-3-days total savings (%)",
            1.0,
            total_savings(study).overall_pct,
        ),
    ]
    try:
        headlines.append(
            Headline(
                "weibo_affected_days_pct",
                "Weibo users' total savings on policy-active days (%)",
                16.0,
                savings_on_affected_days(study, "com.sina.weibo"),
            )
        )
    except (AnalysisError, TraceError):
        # Small studies may never activate the policy, and an imported
        # study registers only the apps its files name.
        pass
    return headlines


@dataclass(frozen=True)
class SweepResult:
    """One headline's distribution across seeds."""

    key: str
    values: Sequence[float]

    @property
    def mean(self) -> float:
        """Mean across seeds."""
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Standard deviation across seeds."""
        return float(np.std(self.values))

    @property
    def spread(self) -> float:
        """Max minus min across seeds."""
        return float(max(self.values) - min(self.values))


def seed_sweep(
    build_study: Callable[[int], StudyEnergy],
    seeds: Sequence[int],
) -> Dict[str, SweepResult]:
    """Measure every headline across several study seeds.

    ``build_study`` maps a seed to a :class:`StudyEnergy`; headlines
    that are unavailable at the given scale (e.g. the kill policy never
    activating) are skipped for that seed.
    """
    if not seeds:
        raise AnalysisError("at least one seed is required")
    collected: Dict[str, List[float]] = {}
    for seed in seeds:
        study = build_study(seed)
        for headline in headline_stats(study):
            collected.setdefault(headline.key, []).append(headline.measured)
    return {
        key: SweepResult(key, tuple(values)) for key, values in collected.items()
    }
