"""Plain-text rendering of every figure and table.

No plotting dependency is available offline, so figures are rendered as
aligned text tables / series (CSV-friendly), one renderer per paper
artefact. The benchmark harness prints these, and EXPERIMENTS.md embeds
them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.accounting import StudyEnergy
from repro.core.casestudies import CaseStudyRow
from repro.core.popularity import ConsumerRow
from repro.core.readout import sequential_sum
from repro.core.statefrac import STATE_ORDER
from repro.core.transitions import PersistenceSample, persistence_cdf, TimelineView
from repro.policy import KillPolicyResult
from repro.trace.events import ProcessState
from repro.units import MB


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Align a table of stringifiable cells."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_duration(seconds: float) -> str:
    """Compact human duration."""
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}min"
    if seconds < 2 * 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def render_fig1(counts: Dict[str, int]) -> str:
    """Fig 1: top-10 appearance counts."""
    return render_table(
        ["app", "users_with_app_in_top10"],
        [(name, c) for name, c in counts.items()],
        title="Figure 1: apps in >=2 users' top-10 (by data consumption)",
    )


def render_fig2(
    by_energy: List[ConsumerRow], by_data: List[ConsumerRow]
) -> str:
    """Fig 2: top data and energy consumers."""
    energy_part = render_table(
        ["app", "kJ", "MB", "J/MB"],
        [
            (r.app, r.total_energy / 1e3, r.total_bytes / MB, r.joules_per_mb)
            for r in by_energy
        ],
        title="Figure 2a: top network energy consumers",
    )
    data_part = render_table(
        ["app", "MB", "kJ", "J/MB"],
        [
            (r.app, r.total_bytes / MB, r.total_energy / 1e3, r.joules_per_mb)
            for r in by_data
        ],
        title="Figure 2b: top cellular data consumers",
    )
    return energy_part + "\n\n" + data_part


def render_fig3(fractions: Dict[str, Dict[ProcessState, float]]) -> str:
    """Fig 3: per-app energy fraction in each process state."""
    headers = ["app"] + [s.name.lower() for s in STATE_ORDER] + ["bg_total"]
    rows = []
    for app, by_state in fractions.items():
        bg = sequential_sum(
            f
            for s, f in by_state.items()
            if s
            in (ProcessState.PERCEPTIBLE, ProcessState.SERVICE, ProcessState.BACKGROUND)
        )
        rows.append(
            [app] + [f"{by_state[s] * 100:.1f}%" for s in STATE_ORDER] + [f"{bg * 100:.1f}%"]
        )
    return render_table(
        headers, rows, title="Figure 3: fraction of network energy per process state"
    )


def render_fig4(view: TimelineView, bin_seconds: float = 10.0) -> str:
    """Fig 4: one transition's traffic timeline, as binned byte counts."""
    lo = float(view.times.min()) if len(view.times) else 0.0
    hi = float(view.times.max()) if len(view.times) else 1.0
    edges = np.arange(np.floor(lo / bin_seconds), np.ceil(hi / bin_seconds) + 1)
    rows = []
    for left in edges * bin_seconds:
        mask = (view.times >= left) & (view.times < left + bin_seconds)
        if not mask.any():
            continue
        volume = int(view.sizes[mask].sum())
        phase = "background" if left >= 0 else "foreground"
        rows.append((f"{left:+.0f}s", volume, phase))
    return render_table(
        ["t_rel_transition", "bytes", "phase"],
        rows,
        title=(
            f"Figure 4: {view.app} (user {view.user_id}) traffic around a "
            "foreground->background transition"
        ),
    )


def render_fig5(
    samples: List[PersistenceSample], quantiles: Sequence[float] = (
        0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0
    )
) -> str:
    """Fig 5: persistence-duration CDF at the given quantiles."""
    durations, fractions = persistence_cdf(samples)
    rows = []
    for q in quantiles:
        idx = min(int(np.ceil(q * len(durations))) - 1, len(durations) - 1)
        rows.append((f"p{q * 100:g}", format_duration(float(durations[max(idx, 0)]))))
    return render_table(
        ["quantile", "persistence"],
        rows,
        title=(
            "Figure 5: duration traffic continues after backgrounding "
            f"({len(samples)} transitions)"
        ),
    )


def render_fig6(
    edges: np.ndarray, totals: np.ndarray, rows_limit: int = 40
) -> str:
    """Fig 6: background bytes vs time since foreground, with a coarse
    log-ish re-binning for readability."""
    # Re-bin: 10 s bins for the first 2 min, then 60 s to 15 min, then 5 min.
    boundaries = np.concatenate(
        [
            np.arange(0, 120, 10),
            np.arange(120, 900, 60),
            np.arange(900, edges[-1] + 1, 300),
        ]
    )
    rows = []
    for i in range(len(boundaries) - 1):
        lo, hi = boundaries[i], boundaries[i + 1]
        mask = (edges >= lo) & (edges < hi)
        volume = float(totals[mask].sum())
        rows.append((format_duration(lo), format_duration(hi), f"{volume / MB:.2f}"))
        if len(rows) >= rows_limit:
            break
    return render_table(
        ["from", "to", "MB"],
        rows,
        title="Figure 6: background bytes vs time since leaving foreground",
    )


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def render_table1(rows: List[CaseStudyRow]) -> str:
    """Table 1: case studies."""
    out_rows = []
    last_class = None
    for row in rows:
        cls = row.app_class if row.app_class != last_class else ""
        last_class = row.app_class
        out_rows.append(
            (
                cls,
                row.app,
                f"{row.joules_per_day:.0f}",
                f"{row.joules_per_flow:.1f}",
                f"{row.mb_per_flow:.2f}",
                f"{row.joules_per_mb:.2f}",
                row.update_frequency.describe(),
            )
        )
    return render_table(
        ["class", "app", "J/day", "J/flow", "MB/flow", "J/MB", "update freq"],
        out_rows,
        title="Table 1: background-transfer case studies",
    )


def render_table2(results: List[KillPolicyResult]) -> str:
    """Table 2: kill-after-N-idle-days simulation."""
    headers = ["row"] + [r.app.split(".")[-1] for r in results]
    rows = [
        ["A: % days only bg traffic"]
        + [f"{r.pct_background_only_days:.0f}" for r in results],
        ["B: max consecutive bg days"]
        + [str(r.max_consecutive_background_days) for r in results],
        [f"C: kill@{results[0].idle_days}d avg % energy cut"]
        + [f"{r.avg_energy_reduction_pct:.1f}" for r in results],
    ]
    return render_table(
        headers, rows, title="Table 2: preemptively killing idle background apps"
    )


def render_policy_table(result) -> str:
    """Table-2-style rendering of any counterfactual policy's effect.

    Takes a :class:`repro.policy.PolicyResult`: per-app rows (when the
    evaluation broke apps out) and the study-wide summary, under any
    radio model.
    """
    lines = []
    if result.app_rows:
        headers = ["row"] + [r.app.split(".")[-1] for r in result.app_rows]
        rows = [
            ["users with app energy"]
            + [str(r.users) for r in result.app_rows],
            ["app energy before (kJ)"]
            + [f"{r.energy_before / 1e3:.1f}" for r in result.app_rows],
            ["avg % energy cut"]
            + [f"{r.avg_reduction_pct:.1f}" for r in result.app_rows],
            ["overall % energy cut"]
            + [f"{r.overall_pct:.1f}" for r in result.app_rows],
        ]
        lines.append(
            render_table(
                headers,
                rows,
                title=f"Policy {result.policy} on {result.model}: per-app effect",
            )
        )
        lines.append("")
    savings = result.savings
    lines.append(
        f"Policy {result.policy} on {result.model}, study-wide:\n"
        f"  energy saved: {savings.overall_pct:.2f}% of attributed total "
        f"(mean per-user {savings.mean_user_pct:.2f}%)\n"
        f"  packets dropped: {result.dropped_packets} "
        f"({result.dropped_bytes} bytes)\n"
        f"  packets delayed: {result.moved_packets} "
        f"(mean added delay {result.mean_delay:.0f}s)"
    )
    return "\n".join(lines)


def render_headlines(stats: Dict[str, float]) -> str:
    """Key single-number findings, name -> value."""
    return render_table(
        ["statistic", "value"],
        [(k, v) for k, v in stats.items()],
        title="Headline statistics",
    )


def render_bars(
    values: Sequence[float],
    labels: Sequence[str],
    width: int = 40,
    title: Optional[str] = None,
) -> str:
    """Horizontal ASCII bar chart (terminal-friendly figure rendering)."""
    if len(values) != len(labels):
        raise ValueError("values and labels must have equal length")
    values = [max(float(v), 0.0) for v in values]
    peak = max(values) if values else 0.0
    label_width = max((len(l) for l in labels), default=0)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * (int(round(width * value / peak)) if peak > 0 else 0)
        lines.append(f"{label.ljust(label_width)}  {bar}")
    return "\n".join(lines)


def render_persistence_table(stats: Sequence) -> str:
    """Per-app persistence summary (Fig 5 as a table)."""
    return render_table(
        ["app", "transitions", "median", "p90", "max"],
        [
            (
                s.app,
                s.transitions,
                format_duration(s.median_persistence),
                format_duration(s.p90_persistence),
                format_duration(s.max_persistence),
            )
            for s in stats
        ],
        title="Traffic persistence after backgrounding, per app",
    )
