"""Single-app deep dive — the "app management tool" view.

The paper's closing proposal is tooling that shows users and developers
what an app's network behaviour costs and why. This module assembles
everything the library knows about one app into a single structure:
energy and volume totals, battery impact, process-state split, update
cadence, flow shape, transition behaviour, hour-of-day profile, and the
§5/§6 intervention prices — rendered by ``repro app <name>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.accounting import StudyEnergy
from repro.core.casestudies import case_study_row
from repro.core.periodicity import UpdateFrequency
from repro.core.recommend import Recommendation, recommend
from repro.core.statefrac import background_energy_fraction
from repro.core.transitions import TransitionStats, persistence_durations
from repro.core.readout import require_packet_detail, sequential_sum
from repro.errors import AnalysisError
from repro.trace.events import ProcessState
from repro.units import DAY, MB, battery_fraction

HOUR_BINS = 24


@dataclass(frozen=True)
class AppReport:
    """Everything the study knows about one app."""

    app: str
    category: str
    users: int
    total_energy: float
    total_bytes: int
    joules_per_day: float
    battery_per_user_day: float
    background_fraction: float
    state_energy: Dict[ProcessState, float]
    update_frequency: UpdateFrequency
    joules_per_mb: float
    flows: int
    mb_per_flow: float
    transitions: TransitionStats
    hourly_energy: Tuple[float, ...]  # 24 bins, joules
    recommendation: Recommendation

    @property
    def overnight_fraction(self) -> float:
        """Share of the app's energy spent between midnight and 6 am —
        traffic almost no user is awake for (the Doze motivation)."""
        total = sequential_sum(self.hourly_energy)
        if total <= 0:
            return 0.0
        return sequential_sum(self.hourly_energy[0:6]) / total


def hourly_energy_profile(study: StudyEnergy, app: str) -> Tuple[float, ...]:
    """The app's attributed joules per hour of day, summed over users."""
    require_packet_detail(study, "hourly_energy_profile")
    app_id = study.dataset.registry.id_of(app)
    bins = np.zeros(HOUR_BINS)
    for trace in study.dataset:
        idx = study.index_for(trace.user_id).app_indices(app_id)
        if len(idx) == 0:
            continue
        result = study.user_result(trace.user_id)
        seconds_of_day = (trace.packets.timestamps[idx] - trace.start) % DAY
        hours = (seconds_of_day // 3600).astype(np.int64)
        bins += np.bincount(
            np.clip(hours, 0, HOUR_BINS - 1),
            weights=result.per_packet[idx],
            minlength=HOUR_BINS,
        )
    return tuple(float(v) for v in bins)


def app_report(study: StudyEnergy, app: str) -> AppReport:
    """Assemble the full single-app report."""
    require_packet_detail(study, "app_report")
    registry = study.dataset.registry
    info = registry.by_name(app)
    totals = study.energy_by_app()
    energy = totals.get(info.app_id, 0.0)
    if energy <= 0:
        raise AnalysisError(f"no energy attributed to {app!r}")
    volume = study.bytes_by_app().get(info.app_id, 0)
    case = case_study_row(study, app)
    users = study.users_with_app(info.app_id)
    user_days = sequential_sum(
        study.dataset.user(uid).duration_days for uid in users
    )
    per_app_state = study.energy_by_app_state()
    state_energy = {
        state: per_app_state.get((info.app_id, int(state)), 0.0)
        for state in ProcessState
        if state is not ProcessState.NOT_RUNNING
    }
    samples = persistence_durations(study.dataset, app=app)
    return AppReport(
        app=app,
        category=info.category,
        users=len(users),
        total_energy=energy,
        total_bytes=volume,
        joules_per_day=energy / user_days if user_days else 0.0,
        battery_per_user_day=(
            battery_fraction(energy) / user_days if user_days else 0.0
        ),
        background_fraction=background_energy_fraction(study, app),
        state_energy=state_energy,
        update_frequency=case.update_frequency,
        joules_per_mb=(energy / (volume / MB)) if volume else 0.0,
        flows=case.n_flows,
        mb_per_flow=case.mb_per_flow,
        transitions=TransitionStats.from_samples(app, samples),
        hourly_energy=hourly_energy_profile(study, app),
        recommendation=recommend(study, app),
    )


def render_app_report(report: AppReport) -> str:
    """Human-readable single-app dashboard."""
    from repro.core.report import format_duration, render_bars, render_table

    lines = [
        f"=== {report.app} ({report.category}) ===",
        "",
        render_table(
            ["metric", "value"],
            [
                ("users with traffic", report.users),
                ("total energy", f"{report.total_energy / 1e3:.1f} kJ"),
                ("total volume", f"{report.total_bytes / MB:.1f} MB"),
                ("energy per user-day", f"{report.joules_per_day:.0f} J"),
                (
                    "battery per user-day",
                    f"{report.battery_per_user_day * 100:.1f}%",
                ),
                ("energy per MB", f"{report.joules_per_mb:.1f} J/MB"),
                (
                    "background share",
                    f"{report.background_fraction * 100:.0f}%",
                ),
                ("update cadence", report.update_frequency.describe()),
                ("flows", report.flows),
                ("MB per flow", f"{report.mb_per_flow:.2f}"),
                (
                    "median persistence after minimise",
                    format_duration(report.transitions.median_persistence),
                ),
                (
                    "max persistence after minimise",
                    format_duration(report.transitions.max_persistence),
                ),
                (
                    "overnight (0-6 h) energy share",
                    f"{report.overnight_fraction * 100:.0f}%",
                ),
            ],
        ),
        "",
        render_bars(
            list(report.hourly_energy),
            [f"{h:02d}h" for h in range(24)],
            width=36,
            title="energy by hour of day",
        ),
        "",
        f"recommendation: {report.recommendation.describe()}",
    ]
    return "\n".join(lines)
