"""Shared parser helpers and loaders for the CLI command families.

Every command family module builds on the same small kit: the
``--dataset``/``--users``/``--seed`` study arguments, the
``--from-checkpoint`` and ``--store`` switches, and the loaders that
turn parsed args into datasets, studies, stream sources and store
renders. Keeping the kit here keeps the family modules declarative —
a family module is its ``_cmd_*`` functions plus the ``add_*``
subparser registrations, nothing else.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from repro import RunMetrics, StudyConfig, StudyEnergy, generate_study
from repro.core import report
from repro.core.readout import readout_from_checkpoint
from repro.exitcodes import EXIT_STORE_MISS
from repro.radio.registry import available_models, get_model
from repro.store import ResultStore, render_analysis, store_key_for
from repro.store.render import ANALYSIS_KINDS
from repro.stream import CsvStreamSource, NpzStreamSource
from repro.trace.dataset import Dataset
from repro.workload.scenarios import available_scenarios, get_scenario

#: Table 2's six apps.
TABLE2_APPS = (
    "com.sec.spp.push",
    "com.sina.weibo",
    "com.facebook.orca",
    "com.espn.score_center",
    "com.foursquare.android",
    "com.sec.android.widgetapp.ap.hero.accuweather",
)


def _at_least(cast, minimum, *, strict: bool = False):
    """An argparse ``type=`` casting with ``cast`` and bounding below.

    ``strict`` excludes ``minimum`` itself. An uncastable value keeps
    argparse's own "invalid int value" message; an out-of-range one is
    a usage error naming the bound, never a traceback from inside the
    command.
    """

    def parse(text: str):
        value = cast(text)
        if not (value > minimum if strict else value >= minimum):
            bound = ">" if strict else ">="
            raise argparse.ArgumentTypeError(
                f"must be {bound} {minimum}: {text!r}"
            )
        return value

    parse.__name__ = cast.__name__
    return parse


def _add_study_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="load a saved study (.npz)")
    parser.add_argument("--users", type=_at_least(int, 1), default=20)
    parser.add_argument(
        "--days", type=_at_least(float, 0, strict=True), default=28.0
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--model",
        default="lte",
        choices=available_models(),
        help="radio power model for energy attribution",
    )
    parser.add_argument(
        "--scenario",
        choices=available_scenarios(),
        help="named study scale (overrides --users/--days)",
    )
    parser.add_argument(
        "--workers",
        type=_at_least(int, 0),
        default=1,
        help="processes for study generation (0 = one per CPU)",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="write run metrics (timings, throughput, counters) "
        "as JSON; '-' for stdout",
    )


def _add_checkpoint_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--from-checkpoint",
        metavar="CK.npz",
        help=(
            "run the totals-tier analyses from a finished `repro ingest` "
            "checkpoint instead of loading or generating a study"
        ),
    )


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        metavar="DIR",
        help=(
            "serve the totals-tier result from a persistent results store: "
            "render once, answer repeat runs from the cached artefact"
        ),
    )
    parser.add_argument(
        "--store-only",
        action="store_true",
        help=(
            "never render: print the cached artefact or exit "
            f"{EXIT_STORE_MISS} on a store miss"
        ),
    )


def _metrics(args: argparse.Namespace) -> RunMetrics:
    return getattr(args, "_run_metrics", None) or RunMetrics()


def _study(
    args: argparse.Namespace, dataset=None, lazy: bool = False
) -> StudyEnergy:
    if dataset is None:
        dataset = _load_dataset(args)
    return StudyEnergy(
        dataset,
        model=get_model(getattr(args, "model", "lte")),
        metrics=_metrics(args),
        lazy=lazy,
    )


def _load_dataset(args: argparse.Namespace) -> Dataset:
    metrics = _metrics(args)
    if args.dataset:
        with metrics.stage("load"):
            return Dataset.load(args.dataset)
    if getattr(args, "scenario", None):
        config = get_scenario(args.scenario, seed=args.seed)
    else:
        config = StudyConfig(
            n_users=args.users, duration_days=args.days, seed=args.seed
        )
    print(
        f"generating study: {config.n_users} users x "
        f"{config.duration_days:g} days (seed {config.seed}) ...",
        file=sys.stderr,
    )
    with metrics.stage("generate"):
        dataset = generate_study(config, workers=getattr(args, "workers", 1))
    metrics.count("generation.packets", dataset.total_packets)
    return dataset


def _figure_number(value: str) -> int:
    """Accept ``3`` and ``fig3`` alike."""
    number = value[3:] if value.lower().startswith("fig") else value
    try:
        parsed = int(number)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a figure: {value!r}")
    if parsed not in range(1, 7):
        raise argparse.ArgumentTypeError(f"unknown figure {value!r} (1-6)")
    return parsed


def _table_number(value: str) -> int:
    """Accept ``1`` and ``table1`` alike."""
    number = value[5:] if value.lower().startswith("table") else value
    try:
        parsed = int(number)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a table: {value!r}")
    if parsed not in (1, 2):
        raise argparse.ArgumentTypeError(f"unknown table {value!r} (1-2)")
    return parsed


def _checkpoint_readout(args: argparse.Namespace):
    """The totals-tier readout of ``--from-checkpoint``, timed."""
    with _metrics(args).stage("load"):
        return readout_from_checkpoint(args.from_checkpoint)


def _store_source(args: argparse.Namespace):
    """The readout a ``--store`` command keys and (maybe) renders from.

    A checkpoint readout when ``--from-checkpoint`` is given, otherwise
    a **lazy** :class:`StudyEnergy` — computing the store key only
    reads ``dataset.fingerprint()``, so a warm store hit never runs
    attribution at all.
    """
    if getattr(args, "from_checkpoint", None):
        return _checkpoint_readout(args)
    return _study(args, lazy=True)


def _store_render(args: argparse.Namespace, source, analysis: str) -> int:
    """Serve one totals-tier artefact through the results store."""
    store = ResultStore(args.store, metrics=_metrics(args))
    key = store_key_for(source, analysis)
    if args.store_only:
        result = store.get(key)
        if result is None:
            print(
                f"error: no cached {analysis} for key {key.digest()} in "
                f"{args.store} (drop --store-only to render it)",
                file=sys.stderr,
            )
            return EXIT_STORE_MISS
    else:
        result = store.get_or_render(
            key,
            lambda: render_analysis(analysis, source).encode("utf-8"),
            kind=ANALYSIS_KINDS[analysis],
        )
    print(result.text)
    return 0


def _user_pairs(specs: Sequence[str]) -> List[Tuple[str, Optional[str]]]:
    """``(packets, events)`` per ``--user PACKETS_CSV[:EVENTS_CSV]``;
    ``events`` is ``None`` when the spec names no events file."""
    pairs = []
    for spec in specs:
        parts = spec.split(":")
        events = parts[1] if len(parts) > 1 and parts[1] else None
        pairs.append((parts[0], events))
    return pairs


def _serve(server, max_requests: Optional[int]) -> None:
    """Serve ``max_requests`` requests (all of them when unset) until
    interrupted, then close the server."""
    try:
        if max_requests:
            for _ in range(max_requests):
                server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def _stream_source(args: argparse.Namespace):
    """Build the chunk source from ``--dataset``/``--user`` flags, or
    ``None`` when neither was given (callers print usage and exit 2)."""
    chunk_size = args.chunk_size
    if args.dataset:
        return NpzStreamSource(args.dataset, chunk_size=chunk_size)
    if args.user:
        return CsvStreamSource(
            _user_pairs(args.user),
            chunk_size=chunk_size,
            duration=args.duration,
            quarantine_rows=getattr(args, "quarantine", False),
        )
    return None


def _print_quarantine_tally(dropped_rows: int, failed_users: int) -> None:
    """The ingest summary's quarantine line, when anything was dropped."""
    if dropped_rows or failed_users:
        print(
            f"quarantined: {dropped_rows} malformed row(s), "
            f"{failed_users} user(s) "
            "(see faults.* counters in --metrics-json)"
        )


def _print_readout_summary(result, registry, top: int, title: str) -> None:
    """The per-app table + totals footer shared by the ingest paths."""
    energy = result.energy_by_app()
    ranked = sorted(energy.items(), key=lambda kv: kv[1], reverse=True)
    rows = [
        (registry.name_of(app), f"{joules / 1e3:.1f}")
        for app, joules in ranked[:top]
    ]
    print(
        report.render_table(
            ["app", "kJ"],
            rows,
            title=f"{title} (top {min(top, len(rows))})",
        )
    )
    print(
        f"\nattributed: {result.attributed_energy / 1e3:.1f} kJ  "
        f"idle: {result.idle_energy / 1e3:.1f} kJ  "
        f"total: {result.total_energy / 1e3:.1f} kJ"
    )
