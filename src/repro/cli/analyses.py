"""The analysis command family: figures, tables, reports, what-ifs.

Every command here turns one study (loaded, generated, or read back
from a checkpoint) into paper-shaped text: ``figure``/``table``
reproduce single artefacts, ``report`` renders the whole set (and
sweeps radio models with ``--models``), ``headlines`` prints the
single-number findings, and ``whatif``/``recommend``/``longitudinal``/
``coalesce``/``app``/``summary``/``lab`` cover the counterfactual and
descriptive analyses.
"""

from __future__ import annotations

import argparse
import sys
from typing import Tuple

from repro import StudyEnergy
from repro.core import (
    bytes_since_foreground,
    kill_policy_savings,
    persistence_durations,
    report,
    trace_timeline,
)
from repro.core.appreport import app_report, render_app_report
from repro.core.headlines import headline_stats
from repro.core.longitudinal import improved_apps, weekly_background_energy
from repro.core.readout import require_packet_detail
from repro.core.recommend import recommendation_report
from repro.errors import AnalysisError
from repro.exitcodes import EXIT_USAGE
from repro.lab import (
    CHROME,
    FIREFOX,
    STOCK_BROWSER,
    browser_background_experiment,
    push_library_experiment,
    xhr_test_page,
)
from repro.policy import (
    available_policies,
    evaluate_policy,
    get_policy,
    os_coalescing_savings,
    parse_params,
    savings_on_affected_days,
)
from repro.radio.registry import available_models, get_model
from repro.store import render_analysis, render_headline_rows
from repro.trace.summary import summarize
from repro.units import battery_fraction

from repro.cli._shared import (
    TABLE2_APPS,
    _add_checkpoint_arg,
    _add_store_args,
    _add_study_args,
    _checkpoint_readout,
    _figure_number,
    _load_dataset,
    _metrics,
    _store_render,
    _store_source,
    _study,
    _table_number,
    _user_pairs,
)

__all__ = ["TABLE2_APPS"]


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    dataset.save(args.out)
    print(f"wrote {args.out}: {dataset}")
    return 0


def _print_analysis(args: argparse.Namespace, name: str) -> int:
    """Print one totals-tier artefact through the renderer registry,
    from the store, the checkpoint or the study. Fig 1 ranks apps by
    traffic alone, so its batch source is the dataset, unattributed."""
    if args.store:
        return _store_render(args, _store_source(args), name)
    if args.from_checkpoint:
        source = _checkpoint_readout(args)
    elif name == "fig1":
        source = _load_dataset(args)
    else:
        source = _study(args)
    print(render_analysis(name, source))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    number = args.number
    if number in (1, 2, 3):
        return _print_analysis(args, f"fig{number}")
    if args.from_checkpoint:
        require_packet_detail(_checkpoint_readout(args), f"figure {number}")
        return 0
    dataset = _load_dataset(args)
    if number == 4:
        print(report.render_fig4(trace_timeline(dataset, args.app)))
    elif number == 5:
        print(report.render_fig5(persistence_durations(dataset, app=args.app)))
    elif number == 6:
        edges, totals = bytes_since_foreground(dataset)
        print(report.render_fig6(edges, totals))
    return 0


def _table2_breakout(dataset) -> Tuple[str, ...]:
    """The Table 2 apps a policy table breaks out: those the study's
    registry holds. An imported study registers only the apps its files
    name; Table 1 skips absent case-study apps the same way."""
    return tuple(app for app in TABLE2_APPS if app in dataset.registry)


def _render_table2(study, dataset) -> str:
    """Table 2 over the Table 2 apps the study registers and gives
    energy to: ``kill_policy_savings`` refuses any other, and a small
    or imported study may lack some."""
    energy = study.energy_by_app()
    apps = [
        app
        for app in _table2_breakout(dataset)
        if energy.get(dataset.registry.id_of(app), 0.0) > 0
    ]
    if not apps:
        return "Table 2: no Table 2 app has energy in this study"
    return report.render_table2([kill_policy_savings(study, app) for app in apps])


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        return _print_analysis(args, "table1")
    if args.from_checkpoint:
        require_packet_detail(_checkpoint_readout(args), f"table {args.number}")
        return 0
    dataset = _load_dataset(args)
    study = _study(args, dataset)
    if args.policy:
        try:
            policy = get_policy(args.policy, parse_params(args.param))
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        result = evaluate_policy(
            study, policy, apps=_table2_breakout(dataset)
        )
        print(report.render_policy_table(result))
    else:
        print(_render_table2(study, dataset))
    return 0


def _cmd_headlines(args: argparse.Namespace) -> int:
    if args.store or args.from_checkpoint:
        # The store and a checkpoint hold the totals-tier block; the
        # full batch set includes per-packet headlines, which are not
        # cacheable by this key.
        return _print_analysis(args, "headlines")
    study = _study(args)
    print(render_headline_rows(headline_stats(study)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if getattr(args, "models", None):
        return _report_models(args)
    if args.from_checkpoint:
        readout = _checkpoint_readout(args)
        print(render_analysis("headlines", readout))
        for name in ("fig1", "fig2", "fig3", "table1"):
            print()
            print(render_analysis(name, readout))
        print(
            "\n(totals-tier report from checkpoint; Figs 4-6, Table 2 and "
            "the remaining headlines replay packets — run `repro report` "
            "on the full study for those)"
        )
        return 0
    dataset = _load_dataset(args)
    study = _study(args, dataset)
    study.prepare_indexes()
    print(render_headline_rows(headline_stats(study)))
    for name, source in (("fig1", dataset), ("fig2", study), ("fig3", study)):
        print()
        print(render_analysis(name, source))
    print()
    print(report.render_fig4(trace_timeline(dataset, "com.android.chrome")))
    print()
    print(
        report.render_fig5(
            persistence_durations(dataset, app="com.android.chrome")
        )
    )
    print()
    edges, totals = bytes_since_foreground(dataset)
    print(report.render_fig6(edges, totals))
    print()
    print(render_analysis("table1", study))
    print()
    print(_render_table2(study, dataset))
    return 0


def _report_models(args: argparse.Namespace) -> int:
    """``repro report --models lte,nr,...``: one study, every radio.

    The dataset is loaded (or generated) **once** and re-attributed
    under each named model; with ``--store`` each model's totals-tier
    headline block is served through the results store (keys differ by
    model, so a sweep re-run is pure store hits). A checkpoint pins one
    model's attribution, so ``--from-checkpoint`` is refused here.
    """
    if args.from_checkpoint:
        print(
            "error: --models re-attributes the study per radio model; a "
            "checkpoint pins one model's attribution — drop "
            "--from-checkpoint (or run one report per checkpoint)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    names = [name.strip() for name in args.models.split(",") if name.strip()]
    known = available_models()
    unknown = sorted(set(names) - set(known))
    if not names or unknown:
        what = ", ".join(unknown) if unknown else "(none given)"
        print(
            f"error: unknown radio model(s) {what} "
            f"(available: {', '.join(known)})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    metrics = _metrics(args)
    dataset = _load_dataset(args)
    rows = []
    baseline = None
    for name in names:
        study = StudyEnergy(
            dataset,
            model=get_model(name),
            metrics=metrics,
        )
        print(f"=== model: {name} ===")
        if args.store:
            code = _store_render(args, study, "headlines")
            if code != 0:
                return code
        else:
            print(render_analysis("headlines", study))
        print()
        total = study.total_energy
        if baseline is None:
            baseline = total
        rows.append(
            (
                name,
                f"{total / 1e3:.1f}",
                f"{study.attributed_energy / 1e3:.1f}",
                f"{study.idle_energy / 1e3:.1f}",
                (
                    "baseline"
                    if baseline == total and name == names[0]
                    else f"{100 * (total - baseline) / baseline:+.1f}%"
                ),
            )
        )
    print(
        report.render_table(
            ["model", "total kJ", "attributed kJ", "idle kJ",
             f"vs {names[0]}"],
            rows,
            title=f"Radio-model sweep ({len(names)} model(s), one study)",
        )
    )
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    params = parse_params(args.param)
    if args.policy == "kill" and "idle_days" not in params:
        params["idle_days"] = args.idle_days
    try:
        policy = get_policy(args.policy, params)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.from_checkpoint:
        # Counterfactuals replay packets: the gate refuses totals-only
        # checkpoints with a typed NeedsPacketDetail (exit 3).
        readout = _checkpoint_readout(args)
        evaluate_policy(readout, policy)
        return 0
    dataset = _load_dataset(args)
    study = _study(args, dataset)
    if args.policy == "kill" and args.app:
        result = kill_policy_savings(study, args.app, idle_days=args.idle_days)
        print(report.render_table2([result]))
        print()
        try:
            pct = savings_on_affected_days(study, args.app, args.idle_days)
            print(f"affected-days total savings: {pct:.1f}%")
        except AnalysisError:
            print(
                "affected-days total savings: policy never activates in this "
                "study (no 3-day idle stretch)"
            )
        return 0
    detail = (args.app,) if args.app else _table2_breakout(dataset)
    result = evaluate_policy(study, policy, apps=detail)
    print(report.render_policy_table(result))
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    study = _study(args, dataset)
    recommendations = recommendation_report(study, top_n=args.top)
    total_days = sum(t.duration_days for t in dataset)
    rows = [
        (
            r.app,
            f"{r.total_energy / 1e3:.0f}",
            # Average battery share this app's radio energy costs one
            # user per day — the unit people feel.
            f"{100 * battery_fraction(r.total_energy) / max(total_days, 1e-9):.1f}%",
            r.primary.value,
            f"{r.batching_saving_pct:.0f}%" if r.batching_saving_pct else "-",
            f"{r.kill_saving_pct:.0f}%" if r.kill_saving_pct else "-",
            f"{r.lingering_energy_fraction * 100:.0f}%",
        )
        for r in recommendations
    ]
    print(
        report.render_table(
            [
                "app",
                "kJ",
                "battery/user-day",
                "primary recommendation",
                "batch",
                "idle-kill",
                "linger",
            ],
            rows,
            title="Per-app recommendations (§6 operationalised)",
        )
    )
    return 0


def _cmd_longitudinal(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    study = _study(args, dataset)
    series = weekly_background_energy(study)
    print(
        report.render_table(
            ["week", "background kJ"],
            [(i + 1, f"{e / 1e3:.0f}") for i, e in enumerate(series.week_energy)],
            title="Weekly background energy (§3.1)",
        )
    )
    print(
        "\nmax week-over-week fluctuation: "
        f"{series.max_fluctuation * 100:.0f}% (paper: up to 60%)"
    )
    improved = improved_apps(study)
    if improved:
        print("\napps that became more energy-efficient over the study:")
        for app, comparison in improved.items():
            first, last = comparison.eras[0], comparison.eras[-1]
            print(
                f"  {app}: {first.update_frequency.describe()} -> "
                f"{last.update_frequency.describe()}, "
                f"J/day {first.joules_per_day:.0f} -> {last.joules_per_day:.0f}"
            )
    else:
        print("\nno apps flagged as improved in this window")
    return 0


def _cmd_app(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    study = _study(args, dataset)
    print(render_app_report(app_report(study, args.app)))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    summary = summarize(dataset)
    print(
        report.render_table(
            ["user", "days", "packets", "MB", "apps", "sessions", "top app"],
            [
                (
                    u.user_id,
                    f"{u.days:.0f}",
                    u.packets,
                    f"{u.megabytes:.0f}",
                    u.apps_with_traffic,
                    u.sessions,
                    u.top_app,
                )
                for u in summary.users
            ],
            title="Per-user trace summary",
        )
    )
    print(
        f"\ncatalog: {summary.total_apps} apps, "
        f"{summary.apps_with_traffic} with traffic; "
        f"{summary.total_packets} packets, {summary.total_megabytes:.0f} MB"
    )
    print()
    print(
        report.render_table(
            ["category", "MB"],
            [(c, f"{v:.0f}") for c, v in summary.category_megabytes[:12]],
            title="Traffic by app category",
        )
    )
    return 0


def _cmd_coalesce(args: argparse.Namespace) -> int:
    if args.from_checkpoint:
        # Same typed refusal as `whatif`: coalescing re-attributes a
        # shifted timeline, which a totals checkpoint cannot replay.
        study = _checkpoint_readout(args)
    else:
        dataset = _load_dataset(args)
        study = _study(args, dataset)
    result = os_coalescing_savings(study, period=args.period)
    print(
        f"OS-coalesced background scheduling (window {args.period:.0f}s):\n"
        f"  energy saved: {result.savings_pct:.1f}% of attributed total\n"
        f"  packets delayed: {result.moved_packets}\n"
        f"  mean added delay: {result.mean_delay:.0f}s"
    )
    return 0


def _cmd_lab(args: argparse.Namespace) -> int:
    page = xhr_test_page()
    rows = []
    for browser in (CHROME, FIREFOX, STOCK_BROWSER):
        result = browser_background_experiment(browser, page)
        rows.append(
            (
                browser.name,
                result.phase_packets[0],
                result.phase_packets[1],
                result.phase_packets[2],
                f"{result.phase_energy[1] + result.phase_energy[2]:.0f}",
            )
        )
    print(
        report.render_table(
            ["browser", "fg pkts", "bg pkts", "screen-off pkts", "bg J"],
            rows,
            title="In-lab: XHR-every-second page across browsers",
        )
    )
    push = push_library_experiment()
    print(
        f"\npush library: {push.requests} nearly-empty requests over "
        f"{push.duration / 3600:.0f} h for {push.notifications} visible "
        f"notification(s); {push.total_energy:.0f} J "
        f"({push.joules_per_notification:.0f} J/notification)"
    )
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from repro.trace.io_text import dataset_from_csv

    dataset = dataset_from_csv(_user_pairs(args.user))
    dataset.save(args.out)
    print(f"wrote {args.out}: {dataset}")
    return 0


# ----------------------------------------------------------------------
# Subparser registration (called by repro.cli.parser in menu order)
# ----------------------------------------------------------------------
def add_generate(sub) -> None:
    p = sub.add_parser("generate", help="generate and save a study")
    _add_study_args(p)
    p.add_argument("--out", default="study.npz")
    p.set_defaults(func=_cmd_generate)


def add_figure(sub) -> None:
    p = sub.add_parser("figure", help="reproduce one figure")
    p.add_argument(
        "number", type=_figure_number, help="1-6, 'fig3' also accepted"
    )
    p.add_argument("--app", default="com.android.chrome")
    _add_study_args(p)
    _add_checkpoint_arg(p)
    _add_store_args(p)
    p.set_defaults(func=_cmd_figure)


def add_table(sub) -> None:
    p = sub.add_parser("table", help="reproduce one table")
    p.add_argument(
        "number", type=_table_number, help="1-2, 'table1' also accepted"
    )
    p.add_argument(
        "--policy",
        choices=available_policies(),
        help="render table 2 for one counterfactual policy",
    )
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="policy parameter override (repeatable)",
    )
    _add_study_args(p)
    _add_checkpoint_arg(p)
    _add_store_args(p)
    p.set_defaults(func=_cmd_table)


def add_report(sub) -> None:
    p = sub.add_parser(
        "report", help="full report: headlines + all figures/tables"
    )
    p.add_argument(
        "--models",
        metavar="NAME[,NAME...]",
        help=(
            "sweep the totals-tier report across radio models (e.g. "
            "lte,nr): one study, re-attributed per model, with a "
            "cross-model diff table; pairs with --store for cached "
            "re-runs"
        ),
    )
    _add_study_args(p)
    _add_checkpoint_arg(p)
    _add_store_args(p)
    p.set_defaults(func=_cmd_report)


def add_headlines(sub) -> None:
    p = sub.add_parser(
        "headlines", help="the paper's single-number findings"
    )
    _add_study_args(p)
    _add_checkpoint_arg(p)
    _add_store_args(p)
    p.set_defaults(func=_cmd_headlines)


def add_whatif(sub) -> None:
    p = sub.add_parser(
        "whatif", help="counterfactual policy savings (kill, doze, ...)"
    )
    p.add_argument("--app", help="break out one app Table-2 style")
    p.add_argument("--idle-days", type=int, default=3)
    p.add_argument(
        "--policy",
        default="kill",
        choices=available_policies(),
        help="counterfactual policy to evaluate",
    )
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="policy parameter override (repeatable)",
    )
    _add_study_args(p)
    _add_checkpoint_arg(p)
    p.set_defaults(func=_cmd_whatif)


def add_recommend(sub) -> None:
    p = sub.add_parser(
        "recommend", help="per-app efficiency recommendations (§6)"
    )
    p.add_argument("--top", type=int, default=15)
    _add_study_args(p)
    p.set_defaults(func=_cmd_recommend)


def add_longitudinal(sub) -> None:
    p = sub.add_parser(
        "longitudinal", help="weekly trends and improved apps (§3.1)"
    )
    _add_study_args(p)
    p.set_defaults(func=_cmd_longitudinal)


def add_import(sub) -> None:
    p = sub.add_parser(
        "import", help="build a dataset from packets/events CSVs"
    )
    p.add_argument(
        "user",
        nargs="+",
        help="one PACKETS_CSV[:EVENTS_CSV] per user",
    )
    p.add_argument("--out", default="study.npz")
    p.set_defaults(func=_cmd_import)


def add_app(sub) -> None:
    p = sub.add_parser("app", help="single-app deep dive")
    p.add_argument("--app", required=True)
    _add_study_args(p)
    p.set_defaults(func=_cmd_app)


def add_summary(sub) -> None:
    p = sub.add_parser("summary", help="structural overview of a study")
    _add_study_args(p)
    p.set_defaults(func=_cmd_summary)


def add_coalesce(sub) -> None:
    p = sub.add_parser(
        "coalesce", help="OS-managed background batching what-if (§6)"
    )
    p.add_argument("--period", type=float, default=1800.0)
    _add_study_args(p)
    _add_checkpoint_arg(p)
    p.set_defaults(func=_cmd_coalesce)


def add_lab(sub) -> None:
    p = sub.add_parser(
        "lab", help="in-lab browser & push-library experiments"
    )
    p.set_defaults(func=_cmd_lab)
