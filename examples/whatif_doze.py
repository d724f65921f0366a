"""OS policy what-ifs: killing idle apps, Doze, and batching (§5/§6).

Run:
    python examples/whatif_doze.py

Generates a study, then prices three OS/developer interventions:

1. the paper's proposal — kill apps after N consecutive days without
   foreground use (Table 2), swept over N;
2. a Doze-like policy — suppress background traffic once the screen has
   been off for an hour, with a widget whitelist;
3. the §6 developer recommendation — batch a chatty app's background
   updates.
"""

from repro import StudyConfig, StudyEnergy, generate_study
from repro.core.report import render_table, render_table2
from repro.errors import AnalysisError
from repro.policy import (
    batching_savings,
    doze_savings,
    kill_policy_savings,
    savings_on_affected_days,
    total_savings,
)

APPS = (
    "com.sec.spp.push",
    "com.sina.weibo",
    "com.facebook.orca",
    "com.sec.android.widgetapp.ap.hero.accuweather",
)


def main() -> None:
    print("Generating a 10-user, 28-day study ...")
    dataset = generate_study(StudyConfig(n_users=10, duration_days=28.0, seed=23))
    study = StudyEnergy(dataset)

    # 1. Table 2 for four rarely-used apps.
    results = [kill_policy_savings(study, app) for app in APPS]
    print()
    print(render_table2(results))

    # Threshold sweep for the most killable app.
    sweep_rows = []
    for idle_days in (1, 2, 3, 5, 7):
        result = kill_policy_savings(study, "com.sina.weibo", idle_days=idle_days)
        sweep_rows.append((idle_days, f"{result.avg_energy_reduction_pct:.1f}"))
    print()
    print(
        render_table(
            ["kill after N idle days", "Weibo avg % energy cut"],
            sweep_rows,
            title="Threshold sweep (the paper picks N=3)",
        )
    )

    overall = total_savings(study)
    print(
        f"\nKilling every idle app saves {overall.overall_pct:.1f}% of total "
        "study energy — each app alone is a small share of a device's total,"
    )
    try:
        affected = savings_on_affected_days(study, "com.sina.weibo")
        print(
            f"but on the days the policy is active, Weibo users save "
            f"{affected:.1f}% of their *total* energy (paper: 16%)."
        )
    except AnalysisError:
        print("(the Weibo policy never activates in this sampled study).")

    # 2. Doze-like screen-off restriction, with and without a whitelist.
    plain = doze_savings(study, screen_off_threshold=3600.0)
    whitelisted = doze_savings(
        study,
        screen_off_threshold=3600.0,
        whitelist=("com.sec.android.widgetapp.ap.hero.accuweather",),
    )
    print(
        f"\nDoze-like policy (bg suppressed after 1 h screen-off): "
        f"{plain.overall_pct:.1f}% saved; "
        f"{whitelisted.overall_pct:.1f}% with the weather widget exempted."
    )

    # 3. Batching a chatty updater.
    rows = []
    for period, label in ((1800.0, "30 min"), (3600.0, "1 h"), (21600.0, "6 h")):
        rows.append((label, f"{batching_savings(study, 'com.sina.weibo', period):.1f}"))
    print()
    print(
        render_table(
            ["batch Weibo background updates to", "% of its energy saved"],
            rows,
            title="§6 developer recommendation: batching",
        )
    )


if __name__ == "__main__":
    main()
