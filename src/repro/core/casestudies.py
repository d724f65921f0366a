"""Table 1: background-transfer case studies.

For each case-study app the paper reports average per-day energy,
per-flow energy and volume, energy per megabyte, and the update
frequency — all over *background* traffic (the table is §4.2's study of
transfers initiated in the background). See DESIGN.md for the units
reading (J/day, J/flow, MB/flow, J/MB).

Flows here use a generous idle timeout (1 h by default) because the
case-study apps hold persistent connections across several updates —
the paper notes "one flow may not correspond to one periodic update".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.periodicity import UpdateFrequency
from repro.core.readout import DEFAULT_FLOW_GAP, EnergyReadout
from repro.errors import AnalysisError, NeedsPacketDetail, TraceError
from repro.units import MB

#: Table 1's app classes and members, in the paper's order.
CASE_STUDY_CLASSES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "Social media",
        (
            "com.sina.weibo",
            "com.twitter.android",
            "com.facebook.katana",
            "com.google.android.apps.plus",
        ),
    ),
    (
        "Periodic update services",
        (
            "com.sec.spp.push",
            "com.urbanairship.push",
            "com.google.android.apps.maps",
            "com.google.android.gm",
        ),
    ),
    (
        "Widgets",
        (
            "com.gau.go.launcherex.gowidget.weatherwidget",
            "com.gau.go.weatherex",
            "com.accuweather.android",
            "com.accuweather.widget",
        ),
    ),
    ("Streaming", ("com.spotify.music", "com.pandora.android")),
    ("Podcasts", ("au.com.shiftyjelly.pocketcasts", "com.bambuna.podcastaddict")),
)

#: Default flow idle timeout for case studies (seconds) — the cadence
#: tier's default, so totals-only readouts can render the table.
CASE_STUDY_FLOW_GAP = DEFAULT_FLOW_GAP


@dataclass(frozen=True)
class CaseStudyRow:
    """One app's Table 1 row."""

    app: str
    app_class: str
    users: int
    joules_per_day: float
    joules_per_flow: float
    mb_per_flow: float
    joules_per_mb: float
    update_frequency: UpdateFrequency
    total_energy: float
    total_bytes: int
    n_flows: int


def case_study_row(
    study: EnergyReadout,
    app: str,
    app_class: str = "",
    flow_gap: float = CASE_STUDY_FLOW_GAP,
) -> CaseStudyRow:
    """Compute one app's Table 1 metrics across all users.

    Totals-tier throughout: energy and bytes fold each included user's
    per-(app, state) background totals (the identical float additions
    on every readout), flows and update frequency come from the cadence
    tier. Works on a :class:`~repro.core.accounting.StudyEnergy` and on
    a totals-only readout alike — the latter at the default gaps only.
    An app the study's registry never saw (a CSV study registers only
    the apps its files name) raises :class:`AnalysisError`, so
    :func:`case_study_table` skips it like any app without traffic.
    """
    try:
        app_id = study.app_id(app)
    except TraceError:
        raise AnalysisError(f"app {app!r} is not in the study") from None
    cadence = study.background_cadence(app_id, flow_gap=flow_gap)
    if cadence.n_users == 0:
        raise AnalysisError(f"no user has background traffic for {app!r}")
    total_energy = 0.0
    total_bytes = 0
    user_days = 0.0
    for entry in cadence.per_user:
        totals = study.user_totals(entry.user_id)
        total_energy += totals.background_energy(app_id)
        total_bytes += totals.background_bytes(app_id)
        user_days += study.duration_days(entry.user_id)
    users = cadence.n_users
    n_flows = cadence.n_flows
    frequency = cadence.update_frequency()
    return CaseStudyRow(
        app=app,
        app_class=app_class,
        users=users,
        joules_per_day=total_energy / user_days if user_days else 0.0,
        joules_per_flow=total_energy / n_flows if n_flows else 0.0,
        mb_per_flow=(total_bytes / MB) / n_flows if n_flows else 0.0,
        joules_per_mb=(total_energy / (total_bytes / MB)) if total_bytes else 0.0,
        update_frequency=frequency,
        total_energy=total_energy,
        total_bytes=total_bytes,
        n_flows=n_flows,
    )


def case_study_table(
    study: EnergyReadout,
    classes: Sequence[Tuple[str, Tuple[str, ...]]] = CASE_STUDY_CLASSES,
    flow_gap: float = CASE_STUDY_FLOW_GAP,
    skip_missing: bool = True,
) -> List[CaseStudyRow]:
    """Compute the full Table 1 in the paper's order.

    Apps with no background traffic in the (synthetic) study are
    skipped when ``skip_missing`` — with few users and rarely-installed
    apps, a short study may simply not contain them, exactly as a short
    slice of the real study would not.
    """
    rows: List[CaseStudyRow] = []
    for app_class, apps in classes:
        for app in apps:
            try:
                rows.append(case_study_row(study, app, app_class, flow_gap))
            except NeedsPacketDetail:
                # Not a missing app — the readout can't serve the table
                # at all; the typed error must reach the caller.
                raise
            except AnalysisError:
                if not skip_missing:
                    raise
    if not rows:
        raise AnalysisError("no case-study app has background traffic")
    return rows


def efficiency_spread(rows: Iterable[CaseStudyRow]) -> float:
    """Max/min ratio of J/MB across rows — the paper's headline that
    similar apps differ by an order of magnitude or more."""
    values = [r.joules_per_mb for r in rows if r.joules_per_mb > 0]
    if len(values) < 2:
        raise AnalysisError("need at least two rows with traffic")
    return max(values) / min(values)
