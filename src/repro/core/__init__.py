"""The paper's analyses.

One module per result:

* :mod:`repro.core.readout`     -- the tiered :class:`EnergyReadout`
  base class, which folds every study-wide total once from per-user
  keyed totals, the totals-only :class:`TotalsReadout`
  (checkpoint-loaded analyses) and the ``require_packet_detail``
  guard.
* :mod:`repro.core.accounting`  -- study-wide energy accounting (the
  substrate every analysis shares).
* :mod:`repro.core.popularity`  -- Fig 1 (top-10 appearance counts) and
  Fig 2 (top data/energy consumers).
* :mod:`repro.core.statefrac`   -- Fig 3 (energy by process state) and
  the 84%-background headline.
* :mod:`repro.core.transitions` -- §4.1: Fig 4 (timeline), Fig 5
  (persistence CDF), Fig 6 (bytes vs time since foreground), and the
  first-minute criterion.
* :mod:`repro.core.periodicity` -- update-interval estimation for
  Table 1's "Update frequency" column.
* :mod:`repro.core.casestudies` -- Table 1 (J/day, J/flow, MB/flow,
  J/MB per case-study app).
* :mod:`repro.policy` (re-exported) -- §5: Table 2 (kill idle
  background apps) plus Doze-like and batching extensions.
* :mod:`repro.core.report`      -- plain-text rendering of every figure
  and table.
"""

from repro.core.accounting import StudyEnergy
from repro.core.readout import (
    AppCadence,
    EnergyReadout,
    TotalsReadout,
    UserCadence,
    UserTotalsView,
    merge_keyed_totals,
    readout_from_checkpoint,
    require_packet_detail,
    sequential_sum,
)
from repro.keyed import KeyedTotals
from repro.core.popularity import (
    category_energy,
    top10_appearance_counts,
    top_consumers,
    ConsumerRow,
)
from repro.core.statefrac import (
    background_energy_fraction,
    state_energy_fractions,
    state_energy_share,
)
from repro.core.transitions import (
    TransitionStats,
    bytes_since_foreground,
    first_minute_fractions,
    fraction_of_apps_above,
    persistence_cdf,
    persistence_durations,
    trace_timeline,
)
from repro.core.periodicity import UpdateFrequency, estimate_update_frequency
from repro.core.casestudies import CaseStudyRow, case_study_row, case_study_table
from repro.core.appreport import AppReport, app_report, render_app_report
from repro.core.headlines import (
    Headline,
    SweepResult,
    headline_stats,
    seed_sweep,
    totals_headline_stats,
)
from repro.core.longitudinal import (
    EraComparison,
    WeeklySeries,
    era_comparison,
    improved_apps,
    weekly_background_energy,
)
from repro.core.recommend import (
    Diagnosis,
    Recommendation,
    recommend,
    recommendation_report,
)
from repro.policy import (
    CoalescingResult,
    KillPolicyResult,
    batching_savings,
    doze_savings,
    frequency_cap_savings,
    kill_policy_savings,
    os_coalescing_savings,
    savings_on_affected_days,
    total_savings,
)

__all__ = [
    "AppReport",
    "CaseStudyRow",
    "app_report",
    "case_study_row",
    "fraction_of_apps_above",
    "persistence_cdf",
    "render_app_report",
    "savings_on_affected_days",
    "CoalescingResult",
    "Diagnosis",
    "frequency_cap_savings",
    "os_coalescing_savings",
    "EraComparison",
    "Headline",
    "SweepResult",
    "headline_stats",
    "seed_sweep",
    "Recommendation",
    "WeeklySeries",
    "era_comparison",
    "improved_apps",
    "recommend",
    "recommendation_report",
    "weekly_background_energy",
    "ConsumerRow",
    "KillPolicyResult",
    "AppCadence",
    "EnergyReadout",
    "KeyedTotals",
    "TotalsReadout",
    "UserCadence",
    "UserTotalsView",
    "readout_from_checkpoint",
    "require_packet_detail",
    "totals_headline_stats",
    "StudyEnergy",
    "merge_keyed_totals",
    "sequential_sum",
    "TransitionStats",
    "UpdateFrequency",
    "background_energy_fraction",
    "batching_savings",
    "bytes_since_foreground",
    "category_energy",
    "case_study_table",
    "doze_savings",
    "estimate_update_frequency",
    "first_minute_fractions",
    "kill_policy_savings",
    "persistence_durations",
    "state_energy_fractions",
    "state_energy_share",
    "top10_appearance_counts",
    "top_consumers",
    "total_savings",
]
