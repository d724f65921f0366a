"""Benches for the extension analyses built on top of the paper.

* §3.1 longitudinal trends: weekly background-energy series and
  improved-app detection (Facebook's 5 min -> 1 h evolution must be
  recovered from the traces alone).
* §6 recommendation engine: diagnose the top consumers.
* §6 OS-managed batching (the iOS discussion): re-time background
  traffic into shared windows and re-attribute.
"""

from repro.core.longitudinal import (
    era_comparison,
    improved_apps,
    weekly_background_energy,
)
from repro.core.recommend import Diagnosis, recommendation_report
from repro.core.report import render_table
from repro.policy import os_coalescing_savings

from conftest import write_artifact


def test_longitudinal_trends(benchmark, bench_study, output_dir):
    def compute():
        series = weekly_background_energy(bench_study)
        improved = improved_apps(
            bench_study,
            apps=[
                "com.facebook.katana",
                "com.pandora.android",
                "com.gau.go.weatherex",
                "com.sina.weibo",
                "com.android.email",
            ],
        )
        return series, improved

    series, improved = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [(i + 1, f"{e / 1e3:.0f}") for i, e in enumerate(series.week_energy)]
    write_artifact(
        output_dir,
        "extension_longitudinal.txt",
        render_table(["week", "background kJ"], rows, title="Weekly background energy")
        + f"\nmax week-over-week fluctuation: {series.max_fluctuation * 100:.0f}%"
        + f"\nimproved apps: {sorted(improved)}",
    )
    benchmark.extra_info["max_fluctuation_pct"] = round(
        series.max_fluctuation * 100, 1
    )
    benchmark.extra_info["improved"] = sorted(improved)

    # The evolvers are detected from traffic alone; the stable chatty
    # apps are not.
    assert "com.facebook.katana" in improved
    assert "com.sina.weibo" not in improved
    assert "com.android.email" not in improved
    facebook = era_comparison(bench_study, "com.facebook.katana")
    assert facebook.energy_change < -0.3  # J/day fell substantially


def test_recommendation_engine(benchmark, bench_study, output_dir):
    recs = benchmark.pedantic(
        lambda: recommendation_report(bench_study, top_n=12), rounds=1, iterations=1
    )
    write_artifact(
        output_dir,
        "extension_recommendations.txt",
        render_table(
            ["app", "kJ", "primary recommendation", "batch%", "kill%", "linger%"],
            [
                (
                    r.app,
                    f"{r.total_energy / 1e3:.0f}",
                    r.primary.value,
                    f"{r.batching_saving_pct:.0f}",
                    f"{r.kill_saving_pct:.0f}",
                    f"{r.lingering_energy_fraction * 100:.0f}",
                )
                for r in recs
            ],
            title="Per-app recommendations (§6 operationalised)",
        ),
    )
    by_app = {r.app: r for r in recs}
    # The paper's archetypes map to their diagnoses.
    assert Diagnosis.CHATTY_BACKGROUND in by_app["com.sec.spp.push"].diagnoses
    if "com.sina.weibo" in by_app:
        assert Diagnosis.IDLE_DRAIN in by_app["com.sina.weibo"].diagnoses
    flagged = [r for r in recs if r.primary is not Diagnosis.EFFICIENT]
    benchmark.extra_info["flagged"] = len(flagged)
    assert len(flagged) >= len(recs) // 2  # top consumers are mostly fixable


def test_os_coalescing(benchmark, bench_study, output_dir):
    def compute():
        return {
            period: os_coalescing_savings(bench_study, period=period)
            for period in (600.0, 1800.0, 3600.0)
        }

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    write_artifact(
        output_dir,
        "extension_os_coalescing.txt",
        render_table(
            ["window", "% energy saved", "mean delay (s)"],
            [
                (f"{int(p)}s", f"{r.savings_pct:.1f}", f"{r.mean_delay:.0f}")
                for p, r in results.items()
            ],
            title="OS-managed background batching (§6's iOS model)",
        ),
    )
    benchmark.extra_info.update(
        {f"save_{int(p)}s_pct": round(r.savings_pct, 1) for p, r in results.items()}
    )
    # Monotone in window size; substantial at 30 min.
    savings = [results[p].savings_pct for p in (600.0, 1800.0, 3600.0)]
    assert savings == sorted(savings)
    assert savings[1] > 30.0
