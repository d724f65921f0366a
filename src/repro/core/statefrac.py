"""Energy by Android process state (Fig 3 and the 84% headline).

The paper splits each app's network energy across the five process
states and finds that 84% of all cellular network energy is consumed in
a background state (perceptible, service or background), with service
alone at 32% and perceptible at 8%.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.readout import EnergyReadout, sequential_sum
from repro.errors import AnalysisError
from repro.trace.events import ProcessState, background_state_values

#: Display order of the five paper states.
STATE_ORDER = (
    ProcessState.FOREGROUND,
    ProcessState.VISIBLE,
    ProcessState.PERCEPTIBLE,
    ProcessState.SERVICE,
    ProcessState.BACKGROUND,
)


def state_energy_fractions(
    study: EnergyReadout, apps: Optional[Iterable[str]] = None
) -> Dict[str, Dict[ProcessState, float]]:
    """Fig 3: per-app fraction of energy in each process state.

    Args:
        study: Precomputed study energy.
        apps: App names to include; defaults to the twelve highest
            energy consumers (the paper's selection of "data- or
            energy-hungry apps").

    Returns:
        app name -> {state: fraction}; fractions of each app sum to 1.
    """
    per_app_state = study.energy_by_app_state()
    if apps is None:
        totals = study.energy_by_app()
        top = sorted(totals, key=lambda a: totals[a], reverse=True)[:12]
        apps = [study.app_name(a) for a in top]
    out: Dict[str, Dict[ProcessState, float]] = {}
    for name in apps:
        app_id = study.app_id(name)
        by_state = {
            state: per_app_state.get((app_id, int(state)), 0.0)
            for state in STATE_ORDER
        }
        total = sequential_sum(by_state.values())
        if total <= 0:
            raise AnalysisError(f"app {name!r} has no attributed energy")
        out[name] = {state: e / total for state, e in by_state.items()}
    return out


def state_energy_share(study: EnergyReadout) -> Dict[ProcessState, float]:
    """Study-wide fraction of attributed energy per process state.

    Normalised over the paper's five states; the negligible residue of
    packets labelled ``NOT_RUNNING`` (bursts straddling a process-kill
    instant, as happens in real traces too) is excluded.
    """
    by_state = study.energy_by_state()
    five = {state: by_state.get(int(state), 0.0) for state in STATE_ORDER}
    total = sequential_sum(five.values())
    if total <= 0:
        raise AnalysisError("study has no attributed energy")
    return {state: joules / total for state, joules in five.items()}


def background_energy_fraction(
    study: EnergyReadout, app: Optional[str] = None
) -> float:
    """Fraction of attributed energy consumed in background states.

    Study-wide this is the paper's 84% headline; per app it gives e.g.
    Chrome's ~30%. Normalised over the five paper states (see
    :func:`state_energy_share` on the ``NOT_RUNNING`` residue).
    """
    per_app_state = study.energy_by_app_state()
    bg_values = set(background_state_values().tolist())
    five_values = {int(s) for s in STATE_ORDER}
    if app is not None:
        app_id = study.app_id(app)
        items = {
            (a, s): e
            for (a, s), e in per_app_state.items()
            if a == app_id and s in five_values
        }
    else:
        items = {
            (a, s): e for (a, s), e in per_app_state.items() if s in five_values
        }
    total = sequential_sum(items.values())
    if total <= 0:
        raise AnalysisError("no attributed energy in selection")
    background = sequential_sum(
        e for (_, s), e in items.items() if s in bg_values
    )
    return background / total


def background_fraction_per_app(study: EnergyReadout) -> Dict[str, float]:
    """Background energy fraction of every app with attributed energy."""
    per_app_state = study.energy_by_app_state()
    bg_values = set(background_state_values().tolist())
    five_values = {int(s) for s in STATE_ORDER}
    totals: Dict[int, float] = {}
    background: Dict[int, float] = {}
    for (app_id, state), joules in per_app_state.items():
        if state not in five_values:
            continue
        totals[app_id] = totals.get(app_id, 0.0) + joules
        if state in bg_values:
            background[app_id] = background.get(app_id, 0.0) + joules
    return {
        study.app_name(app_id): background.get(app_id, 0.0) / total
        for app_id, total in totals.items()
        if total > 0
    }
