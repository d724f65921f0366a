"""Per-app recommendations (§6 operationalised).

The paper closes by proposing "new app management tools that tailor
network activity to user interaction patterns". This module is that
tool: given a study, it diagnoses each app against the paper's failure
modes and prices the fix —

* **terminate-on-minimise** — a meaningful share of the app's energy is
  foreground-initiated traffic persisting after backgrounding (§4.1);
* **batch-background-updates** — chatty periodic background traffic
  whose tails dominate; reports the §6 batching saving;
* **kill-when-idle** — the app drains for days without foreground use;
  reports the §5 kill-policy saving;
* **efficient** — none of the above at material scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.accounting import StudyEnergy
from repro.core.periodicity import estimate_update_frequency
from repro.core.transitions import persistence_durations
from repro.core.readout import require_packet_detail
from repro.errors import AnalysisError
from repro.policy import batching_savings, kill_policy_savings
from repro.units import HOUR, MINUTE


class Diagnosis(Enum):
    """Failure modes the paper identifies."""

    LINGERING_FOREGROUND = "terminate transfers on minimise"
    CHATTY_BACKGROUND = "batch background updates"
    IDLE_DRAIN = "kill or restrict when idle for days"
    EFFICIENT = "no material inefficiency found"


@dataclass(frozen=True)
class Recommendation:
    """One app's diagnosis and the priced fix."""

    app: str
    total_energy: float
    diagnoses: tuple
    lingering_energy_fraction: float
    update_interval: float
    batching_saving_pct: float
    kill_saving_pct: float

    @property
    def primary(self) -> Diagnosis:
        """The highest-impact diagnosis."""
        return self.diagnoses[0] if self.diagnoses else Diagnosis.EFFICIENT

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [f"{self.app}: {self.primary.value}"]
        if Diagnosis.CHATTY_BACKGROUND in self.diagnoses:
            parts.append(f"batching saves {self.batching_saving_pct:.0f}%")
        if Diagnosis.IDLE_DRAIN in self.diagnoses:
            parts.append(f"idle-kill saves {self.kill_saving_pct:.0f}%")
        if Diagnosis.LINGERING_FOREGROUND in self.diagnoses:
            parts.append(
                f"{self.lingering_energy_fraction * 100:.0f}% of energy "
                "lingers after minimise"
            )
        return "; ".join(parts)


def _lingering_fraction(
    study: StudyEnergy, app: str, window: float = 2 * HOUR
) -> float:
    """Share of the app's energy in the first ``window`` of background
    episodes — the §4.1 lingering signature (legitimate syncs finish in
    the first minute; we measure beyond that)."""
    app_id = study.dataset.registry.id_of(app)
    lingering = 0.0
    total = 0.0
    for trace in study.dataset:
        result = study.user_result(trace.user_id)
        index = study.index_for(trace.user_id)
        idx = index.app_indices(app_id)
        if len(idx) == 0:
            continue
        total += float(result.per_packet[idx].sum())
        per_packet = result.per_packet
        app_ts = trace.packets.timestamps[idx]
        for episode in index.background_episodes(app_id):
            lo = np.searchsorted(app_ts, episode.start + 60.0)
            hi = np.searchsorted(app_ts, min(episode.start + window, episode.end))
            if hi > lo:
                lingering += float(per_packet[idx[lo:hi]].sum())
    return lingering / total if total > 0 else 0.0


def recommend(
    study: StudyEnergy,
    app: str,
    batching_period: float = 1 * HOUR,
    idle_days: int = 3,
) -> Recommendation:
    """Diagnose one app and price the applicable fixes."""
    require_packet_detail(study, "recommend")
    app_id = study.dataset.registry.id_of(app)
    total = study.energy_by_app().get(app_id, 0.0)
    if total <= 0:
        raise AnalysisError(f"no energy attributed to {app!r}")

    groups = []
    for trace in study.dataset:
        idx = study.index_for(trace.user_id).app_background_indices(app_id)
        if len(idx):
            groups.append(trace.packets.timestamps[idx])
    frequency = estimate_update_frequency(groups)

    lingering = _lingering_fraction(study, app)
    try:
        batch_pct = batching_savings(study, app, batching_period)
    except AnalysisError:
        batch_pct = 0.0
    kill = kill_policy_savings(study, app, idle_days=idle_days)

    diagnoses: List[Diagnosis] = []
    candidates = []
    if lingering > 0.10:
        candidates.append((lingering, Diagnosis.LINGERING_FOREGROUND))
    if (
        frequency.is_periodic
        and frequency.median_interval < 30 * MINUTE
        and batch_pct > 25.0
    ):
        candidates.append((batch_pct / 100.0, Diagnosis.CHATTY_BACKGROUND))
    if kill.avg_energy_reduction_pct > 10.0:
        candidates.append(
            (kill.avg_energy_reduction_pct / 100.0, Diagnosis.IDLE_DRAIN)
        )
    candidates.sort(reverse=True)
    diagnoses = [d for _, d in candidates] or [Diagnosis.EFFICIENT]

    return Recommendation(
        app=app,
        total_energy=total,
        diagnoses=tuple(diagnoses),
        lingering_energy_fraction=lingering,
        update_interval=frequency.median_interval,
        batching_saving_pct=batch_pct,
        kill_saving_pct=kill.avg_energy_reduction_pct,
    )


def recommendation_report(
    study: StudyEnergy,
    apps: Optional[Sequence[str]] = None,
    top_n: int = 15,
) -> List[Recommendation]:
    """Recommendations for the study's top energy consumers.

    Args:
        study: Precomputed study energy.
        apps: Explicit app list; defaults to the ``top_n`` apps by
            attributed energy.
        top_n: How many top consumers to diagnose when ``apps`` is None.
    """
    require_packet_detail(study, "recommendation_report")
    if apps is None:
        totals = study.energy_by_app()
        registry = study.dataset.registry
        ranked = sorted(totals, key=lambda a: totals[a], reverse=True)[:top_n]
        apps = [registry.name_of(a) for a in ranked]
    return [recommend(study, app) for app in apps]
