"""The streaming command family: bounded-memory ingest and live follow.

``repro ingest`` streams one study through the attribution engine with
checkpoint/resume; ``--shards N`` flips it into the one-box sharded
path (plan + run + merge, see :mod:`repro.cli.sharding`), where
``--workers`` may name either a local process count or a remote
``repro shard worker`` URL pool. ``repro follow`` tails a growing
source and maintains rolling windows.
"""

from __future__ import annotations

import argparse
import sys

from repro.exitcodes import EXIT_FOLLOW_INTERRUPTED, EXIT_OK, EXIT_USAGE
from repro.core import report
from repro.follow import (
    DEFAULT_WINDOWS,
    Follower,
    NpzDropSource,
    TailCsvSource,
    parse_window_spec,
)
from repro.radio.registry import available_models, get_model
from repro.store import ResultStore
from repro.stream import DEFAULT_CHUNK_SIZE, StreamIngestor

from repro.cli._shared import (
    _at_least,
    _metrics,
    _print_quarantine_tally,
    _stream_source,
    _user_pairs,
)
from repro.cli.sharding import _ingest_sharded, _worker_spec


def _cmd_ingest(args: argparse.Namespace) -> int:
    metrics = _metrics(args)
    if not args.shards and (
        args.workers != 1 or args.retries or args.task_timeout is not None
    ):
        print(
            "an unsharded ingest runs in process: --workers, --retries "
            "and --task-timeout set up the shard pool, so add --shards N "
            "to use them",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if not (args.dataset or args.user):
        print(
            "ingest needs --dataset FILE or --user PACKETS_CSV[:EVENTS_CSV]",
            file=sys.stderr,
        )
        return 2
    if args.shards:
        return _ingest_sharded(args, metrics)
    # Built after every usage check: over --user CSVs this parses them.
    source = _stream_source(args)
    ingestor = StreamIngestor(
        source,
        model=get_model(args.model),
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        metrics=metrics,
        quarantine=args.quarantine,
        cadence=not args.no_cadence,
    )
    result = ingestor.run(resume=args.resume, max_chunks=args.max_chunks)
    counters = metrics.as_dict()["counters"]
    if result is None:
        print(
            f"stopped after {counters.get('stream.chunks', 0)} chunks; "
            f"checkpoint written to {args.checkpoint} "
            "(continue with --resume)"
        )
        return 0
    energy = result.energy_by_app()
    top = sorted(energy.items(), key=lambda kv: kv[1], reverse=True)
    rows = [
        (source.registry.name_of(app), f"{joules / 1e3:.1f}")
        for app, joules in top[: args.top]
    ]
    print(
        report.render_table(
            ["app", "kJ"],
            rows,
            title=f"Streamed per-app energy (top {min(args.top, len(rows))})",
        )
    )
    print(
        f"\nusers: {len(result.user_ids)}  chunks: "
        f"{counters.get('stream.chunks', 0)}  checkpoints: "
        f"{counters.get('stream.checkpoints', 0)}"
    )
    _print_quarantine_tally(
        counters.get("faults.rows_quarantined", 0), len(result.failures)
    )
    print(
        f"attributed: {result.attributed_energy / 1e3:.1f} kJ  "
        f"idle: {result.idle_energy / 1e3:.1f} kJ  "
        f"total: {result.total_energy / 1e3:.1f} kJ"
    )
    return 0


def _cmd_follow(args: argparse.Namespace) -> int:
    metrics = _metrics(args)
    if bool(args.user) == bool(args.drops):
        print(
            "follow needs exactly one of --user PACKETS_CSV[:EVENTS_CSV] "
            "(repeatable) or --drops DIR",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.drops:
        source = NpzDropSource(args.drops, chunk_size=args.chunk_size)
    else:
        source = TailCsvSource(
            _user_pairs(args.user), chunk_size=args.chunk_size
        )
    windows = (
        tuple(parse_window_spec(text) for text in args.window)
        if args.window
        else DEFAULT_WINDOWS
    )
    store = (
        ResultStore(args.store, metrics=metrics) if args.store else None
    )
    follower = Follower(
        source,
        checkpoint_path=args.checkpoint,
        model=get_model(args.model),
        windows=windows,
        store=store,
        checkpoint_every=args.checkpoint_every,
        poll_interval=args.poll_interval,
        max_pending=args.max_pending,
        top_n=args.top_n,
        metrics=metrics,
    )
    why = follower.run(
        resume=args.resume,
        max_polls=args.max_polls,
        idle_exit=args.idle_exit,
    )
    counters = metrics.as_dict()["counters"]
    print(
        f"follow {why}: {counters.get('follow.chunks', 0)} chunk(s), "
        f"{counters.get('follow.packets', 0)} packet(s), "
        f"{len(follower.headline_log)} headline(s); checkpoint "
        f"{args.checkpoint} (continue with --resume)",
        flush=True,
    )
    if why == "interrupted":
        return EXIT_FOLLOW_INTERRUPTED
    return EXIT_OK


def add_follow(sub) -> None:
    p = sub.add_parser(
        "follow",
        help=(
            "live monitoring: tail a growing source, keep rolling "
            "windows, emit headlines"
        ),
    )
    p.add_argument(
        "--user",
        action="append",
        help="tail one user's PACKETS_CSV[:EVENTS_CSV] (repeatable)",
    )
    p.add_argument(
        "--drops",
        metavar="DIR",
        help="follow a directory collecting per-day .npz study drops",
    )
    p.add_argument(
        "--checkpoint",
        metavar="FILE",
        required=True,
        help="follow state file (windows, cursors, headline state)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint instead of starting over",
    )
    p.add_argument(
        "--checkpoint-every",
        type=_at_least(int, 1),
        default=16,
        metavar="N",
        help="checkpoint every N processed chunks (and on SIGTERM/SIGINT)",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        help=(
            "results store to publish live windows into (serve them "
            "with `repro serve --live --store DIR`)"
        ),
    )
    p.add_argument(
        "--window",
        action="append",
        metavar="NAME=SPAN:BUCKET",
        help=(
            "maintain this rolling window (seconds; repeatable; "
            "default hour=3600:300 day=86400:7200 week=604800:43200)"
        ),
    )
    p.add_argument(
        "--poll-interval",
        type=_at_least(float, 0),
        default=1.0,
        metavar="SECONDS",
        help="sleep this long between polls that found no new data",
    )
    p.add_argument(
        "--max-polls",
        type=_at_least(int, 1),
        metavar="N",
        help="stop after N poll iterations (for tests and smoke runs)",
    )
    p.add_argument(
        "--idle-exit",
        type=_at_least(int, 1),
        metavar="N",
        help="exit once N consecutive polls found no new data",
    )
    p.add_argument(
        "--max-pending",
        type=_at_least(int, 1),
        default=64,
        metavar="N",
        help=(
            "bound on queued chunks awaiting attribution (backpressure: "
            "polling pauses at the bound; see the follow.lag_chunks gauge)"
        ),
    )
    p.add_argument(
        "--top-n",
        type=_at_least(int, 1),
        default=5,
        help="headline top-N size",
    )
    p.add_argument(
        "--chunk-size",
        type=_at_least(int, 1),
        default=DEFAULT_CHUNK_SIZE,
        help="maximum packets held in memory per chunk",
    )
    p.add_argument(
        "--model",
        default="lte",
        choices=available_models(),
        help="radio power model for energy attribution",
    )
    p.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="write run metrics as JSON; '-' for stdout",
    )
    p.set_defaults(func=_cmd_follow)


def add_ingest(sub) -> None:
    p = sub.add_parser(
        "ingest",
        help="streaming ingestion: bounded-memory, checkpoint/resume",
    )
    p.add_argument("--dataset", help="stream a saved study (.npz)")
    p.add_argument(
        "--user",
        action="append",
        help="stream one user's PACKETS_CSV[:EVENTS_CSV] (repeatable)",
    )
    p.add_argument(
        "--chunk-size",
        type=_at_least(int, 1),
        default=DEFAULT_CHUNK_SIZE,
        help="maximum packets held in memory per chunk",
    )
    p.add_argument(
        "--duration",
        type=float,
        help="CSV observation window (default: latest event, ceil to day)",
    )
    p.add_argument("--checkpoint", metavar="FILE", help="checkpoint file")
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint instead of starting over",
    )
    p.add_argument(
        "--checkpoint-every",
        type=_at_least(int, 0),
        default=0,
        metavar="N",
        help="write a checkpoint every N chunks (0 = only at the end)",
    )
    p.add_argument(
        "--max-chunks",
        type=_at_least(int, 1),
        metavar="N",
        help="stop after N chunks, checkpoint, and exit (bounded slice)",
    )
    p.add_argument(
        "--model",
        default="lte",
        choices=available_models(),
        help="radio power model for energy attribution",
    )
    p.add_argument(
        "--workers",
        type=_worker_spec,
        default=1,
        metavar="N|URL[,URL...]",
        help=(
            "with --shards: shard processes (0 = one per CPU) or the "
            "`repro shard worker` URL pool to execute shards on; an "
            "unsharded ingest runs in process and takes only 1"
        ),
    )
    p.add_argument(
        "--retries",
        type=_at_least(int, 0),
        default=0,
        metavar="N",
        help=(
            "with --shards: retry a failed, crashed or hung shard N "
            "times before reporting it"
        ),
    )
    p.add_argument(
        "--task-timeout",
        type=_at_least(float, 0, strict=True),
        metavar="SECONDS",
        help=(
            "with --shards and --workers 2 or more: per-shard hang "
            "timeout; the shard pool kills a shard worker that runs this "
            "long and retries the shard"
        ),
    )
    p.add_argument(
        "--quarantine",
        action="store_true",
        help=(
            "keep going past bad input: drop malformed CSV rows and "
            "users whose chunks the radio layer rejects, reporting both "
            "via faults.* counters"
        ),
    )
    p.add_argument(
        "--no-cadence",
        action="store_true",
        help=(
            "skip background flow/burst cadence tracking (Table 1 then "
            "needs the batch pipeline; Figs 1-3 are unaffected)"
        ),
    )
    p.add_argument(
        "--shards",
        type=_at_least(int, 1),
        metavar="N",
        help=(
            "one-box sharded ingest: plan N user-shards, run them in "
            "parallel (--workers shard processes or worker URLs), merge "
            "into --checkpoint — bit-identical to the unsharded run"
        ),
    )
    p.add_argument(
        "--top", type=_at_least(int, 1), default=15, help="apps to print"
    )
    p.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="write run metrics as JSON; '-' for stdout",
    )
    p.set_defaults(func=_cmd_ingest)
