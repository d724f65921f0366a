"""The sharding command family: plan, run, merge — and the worker.

``repro shard run`` is where the transport seam surfaces, and its
``--workers`` value alone picks the transport
(:func:`~repro.shard.transport.parse_worker_spec`, then
:func:`~repro.shard.transport.make_transport`): a process count
(default ``0``, one per CPU) fans the shards over this box's process
pool, while a ``URL[,URL...]`` list drives a pool of ``repro shard
worker`` processes through :class:`~repro.shard.transport.HttpTransport`
— same manifest, same shard directory, same merge.

``_ingest_sharded`` (the ``repro ingest --shards N`` one-box path)
rides the same transports, so a single command can plan, execute
remotely, and merge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Union

from repro.core.readout import readout_from_checkpoint
from repro.exitcodes import EXIT_USAGE
from repro.metrics import RunMetrics
from repro.radio.registry import available_models
from repro.shard import (
    ShardManifest,
    default_shard_dir,
    make_transport,
    make_worker_server,
    merge_to_checkpoint,
    parse_worker_spec,
)
from repro.stream import DEFAULT_CHUNK_SIZE

from repro.cli._shared import (
    _at_least,
    _metrics,
    _print_quarantine_tally,
    _print_readout_summary,
    _serve,
    _stream_source,
)


def _worker_spec(text: str) -> Union[int, List[str]]:
    """The argparse ``type=`` of a shard-running command's ``--workers``:
    :func:`~repro.shard.transport.parse_worker_spec`, with a malformed
    or negative count a usage error naming the option."""
    try:
        return parse_worker_spec(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a process count (>= 0) or a worker-URL list: {text!r}"
        ) from None


def _transport(args: argparse.Namespace, manifest_path):
    """The transport ``--workers`` selects, carrying the run's options.

    Raises ``ValueError`` for an option the selected pool cannot honour
    (see :func:`make_transport`); callers turn that into a usage error.
    """
    return make_transport(
        args.workers,
        checkpoint_every=args.checkpoint_every,
        retries=args.retries,
        task_timeout=args.task_timeout,
        quarantine=args.quarantine,
        manifest_path=manifest_path,
    )


def _ingest_sharded(args: argparse.Namespace, metrics: RunMetrics) -> int:
    """The one-box convenience path: plan + run + merge in one command.

    ``--checkpoint`` names the *merged* whole-study checkpoint; the plan
    lands next to it as ``<checkpoint>.plan.json`` and the per-shard
    checkpoints under ``<checkpoint>.plan.json.shards/``. Re-running
    the identical command resumes: complete shards are skipped, partial
    ones continue, and the merge re-emits the same bytes. With a URL
    ``--workers`` pool the shards execute on remote ``repro shard
    worker`` processes instead of local subprocesses — the merged
    checkpoint is the same either way. Every usage error is raised
    before the source is built, which over ``--user`` CSVs parses them.
    """
    if not args.checkpoint:
        print(
            "--shards needs --checkpoint FILE (the merged study "
            "checkpoint to write)",
            file=sys.stderr,
        )
        return 2
    manifest_path = Path(str(args.checkpoint) + ".plan.json")
    try:
        transport = _transport(args, manifest_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    source = _stream_source(args)
    with metrics.stage("shard.plan"):
        manifest = (
            ShardManifest.load(manifest_path)
            if manifest_path.exists()
            else None
        )
        if (
            manifest is None
            or manifest.signature != source.signature()
            or manifest.n_shards != args.shards
        ):
            manifest = ShardManifest.plan(
                source,
                args.shards,
                model_name=args.model,
                cadence=not args.no_cadence,
            )
            manifest.save(manifest_path)
    shard_dir = default_shard_dir(manifest_path)
    transport.dispatch(manifest, shard_dir, metrics=metrics)
    merge_to_checkpoint(
        manifest,
        shard_dir,
        args.checkpoint,
        manifest_path=manifest_path,
        metrics=metrics,
    )
    result = readout_from_checkpoint(args.checkpoint)
    counters = metrics.as_dict()["counters"]
    _print_readout_summary(
        result,
        result.registry,
        args.top,
        f"Sharded per-app energy ({manifest.n_shards} shards)",
    )
    print(
        f"\nusers: {len(manifest.users)}  shards: {manifest.n_shards}  "
        f"chunks: {counters.get('stream.chunks', 0)}  "
        f"merged checkpoint: {args.checkpoint}"
    )
    _print_quarantine_tally(
        counters.get("faults.rows_quarantined", 0),
        counters.get("faults.users_quarantined", 0),
    )
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    metrics = _metrics(args)
    if args.shard_command == "plan":
        source = _stream_source(args)
        if source is None:
            print(
                "shard plan needs --dataset FILE or --user "
                "PACKETS_CSV[:EVENTS_CSV]",
                file=sys.stderr,
            )
            return 2
        with metrics.stage("shard.plan"):
            manifest = ShardManifest.plan(
                source,
                args.shards,
                model_name=args.model,
                cadence=not args.no_cadence,
            )
            manifest.save(args.out)
        sizes = [len(shard) for shard in manifest.shards]
        print(
            f"wrote {args.out}: {len(manifest.users)} users over "
            f"{manifest.n_shards} shard(s) {sizes}, "
            f"model={manifest.model_name}, digest={manifest.digest()}"
        )
        print(f"run with: repro shard run {args.out}")
        return 0

    if args.shard_command == "worker":
        return _cmd_shard_worker(args, metrics)

    manifest = ShardManifest.load(args.manifest)
    shard_dir = (
        Path(args.shard_dir)
        if args.shard_dir
        else default_shard_dir(args.manifest)
    )
    if args.shard_command == "run":
        try:
            transport = _transport(args, args.manifest)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        reports = transport.dispatch(
            manifest,
            shard_dir,
            indices=args.shard if args.shard else None,
            metrics=metrics,
            on_report=(
                None
                if args.quiet
                else lambda index, rep: print(
                    f"shard {index}: "
                    + (
                        "failed"
                        if not isinstance(rep, dict)
                        else (
                            "already complete"
                            if rep["skipped"]
                            else f"{rep['users']} user(s) ingested"
                        )
                    )
                )
            ),
        )
        done = sum(1 for rep in reports if rep["complete"])
        print(
            f"{done}/{len(reports)} shard(s) complete under {shard_dir}; "
            f"merge with: repro shard merge {args.manifest} --out "
            "MERGED.ckpt.npz"
        )
        return 0

    if args.shard_command == "merge":
        merge_to_checkpoint(
            manifest,
            shard_dir,
            args.out,
            manifest_path=args.manifest,
            metrics=metrics,
        )
        result = readout_from_checkpoint(args.out)
        print(
            f"merged {manifest.n_shards} shard(s), "
            f"{len(manifest.users)} user(s) into {args.out}"
        )
        print(
            f"total: {result.total_energy / 1e3:.1f} kJ  "
            f"(attributed {result.attributed_energy / 1e3:.1f} kJ, "
            f"idle {result.idle_energy / 1e3:.1f} kJ)"
        )
        print(
            "analyse with: repro figure fig3 --from-checkpoint "
            f"{args.out}"
        )
        return 0
    raise AssertionError(f"unknown shard command {args.shard_command!r}")


def _cmd_shard_worker(
    args: argparse.Namespace, metrics: RunMetrics
) -> int:
    """``repro shard worker``: serve shards of any plan over HTTP."""
    server = make_worker_server(
        args.workdir,
        host=args.host,
        port=args.port,
        metrics=metrics,
        quiet=args.quiet,
        checkpoint_every=args.checkpoint_every,
    )
    host, port = server.server_address[:2]
    # The banner is parseable on purpose: smoke scripts start workers
    # on --port 0 and scrape the bound port from this line.
    print(
        f"listening on http://{host}:{port} (workdir: {args.workdir})",
        flush=True,
    )
    _serve(server, args.max_requests)
    return 0


def add_shard(sub) -> None:
    p = sub.add_parser(
        "shard",
        help="shard-parallel ingestion: plan, execute and merge",
    )
    shard_sub = p.add_subparsers(dest="shard_command", required=True)
    sp = shard_sub.add_parser(
        "plan", help="partition a study's users into shard manifests"
    )
    sp.add_argument("--dataset", help="shard a saved study (.npz)")
    sp.add_argument(
        "--user",
        action="append",
        help="shard one user's PACKETS_CSV[:EVENTS_CSV] (repeatable)",
    )
    sp.add_argument(
        "--shards", type=_at_least(int, 1), required=True, metavar="N",
        help="number of shards to plan",
    )
    sp.add_argument(
        "--chunk-size",
        type=_at_least(int, 1),
        default=DEFAULT_CHUNK_SIZE,
        help="maximum packets held in memory per chunk",
    )
    sp.add_argument(
        "--duration",
        type=float,
        help="CSV observation window (default: latest event, ceil to day)",
    )
    sp.add_argument(
        "--model",
        default="lte",
        choices=available_models(),
        help="radio power model pinned into the plan",
    )
    sp.add_argument(
        "--quarantine",
        action="store_true",
        help="plan with malformed-CSV-row quarantine enabled",
    )
    sp.add_argument(
        "--no-cadence",
        action="store_true",
        help="plan without background cadence tracking",
    )
    sp.add_argument("--out", default="plan.json", help="manifest file")
    sp.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="write run metrics as JSON; '-' for stdout",
    )
    sp.set_defaults(func=_cmd_shard)
    sp = shard_sub.add_parser(
        "run", help="execute shards of a plan to per-shard checkpoints"
    )
    sp.add_argument("manifest", help="plan written by `repro shard plan`")
    sp.add_argument(
        "--shard-dir",
        metavar="DIR",
        help="per-shard checkpoint directory (default: <manifest>.shards)",
    )
    sp.add_argument(
        "--shard",
        type=int,
        action="append",
        metavar="K",
        help="run only shard K (repeatable; default: all shards)",
    )
    sp.add_argument(
        "--workers",
        type=_worker_spec,
        default=0,
        metavar="N|URL[,URL...]",
        help=(
            "shard processes at once (0 = one per CPU), or the "
            "`repro shard worker` URL pool to run the shards on"
        ),
    )
    sp.add_argument(
        "--checkpoint-every",
        type=_at_least(int, 0),
        default=0,
        metavar="N",
        help="checkpoint each shard every N chunks (0 = only at the end)",
    )
    sp.add_argument(
        "--retries",
        type=_at_least(int, 0),
        default=0,
        metavar="N",
        help="retry a failed shard N times before reporting it",
    )
    sp.add_argument(
        "--task-timeout",
        type=_at_least(float, 0, strict=True),
        metavar="SECONDS",
        help=(
            "per-shard hang timeout: the shard pool kills a shard worker "
            "that runs this long and retries or reports the shard (needs "
            "a local pool of 2 or more processes)"
        ),
    )
    sp.add_argument(
        "--quarantine",
        action="store_true",
        help=(
            "quarantine users whose chunks the radio layer rejects "
            "(local shard pool only); malformed CSV rows follow the plan "
            "(`repro shard plan --quarantine`)"
        ),
    )
    sp.add_argument(
        "--quiet", action="store_true", help="no per-shard progress lines"
    )
    sp.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="write run metrics as JSON; '-' for stdout",
    )
    sp.set_defaults(func=_cmd_shard)
    sp = shard_sub.add_parser(
        "merge",
        help="fold per-shard checkpoints into one study checkpoint",
    )
    sp.add_argument("manifest", help="plan written by `repro shard plan`")
    sp.add_argument(
        "--shard-dir",
        metavar="DIR",
        help="per-shard checkpoint directory (default: <manifest>.shards)",
    )
    sp.add_argument(
        "--out",
        required=True,
        metavar="CK.npz",
        help="merged whole-study checkpoint to write",
    )
    sp.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="write run metrics as JSON; '-' for stdout",
    )
    sp.set_defaults(func=_cmd_shard)
    sp = shard_sub.add_parser(
        "worker",
        help="serve this box as an HTTP shard executor (a --workers URL)",
    )
    sp.add_argument(
        "--workdir",
        required=True,
        metavar="DIR",
        help="where this worker lands per-plan shard checkpoints",
    )
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    sp.add_argument(
        "--max-requests",
        type=int,
        metavar="N",
        help="exit after serving N requests (for tests and smoke runs)",
    )
    sp.add_argument(
        "--checkpoint-every",
        type=_at_least(int, 0),
        default=0,
        metavar="N",
        help="checkpoint each shard every N chunks (0 = only at the end)",
    )
    sp.add_argument(
        "--quiet", action="store_true", help="suppress per-request logs"
    )
    sp.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="write run metrics as JSON; '-' for stdout",
    )
    sp.set_defaults(func=_cmd_shard)
