"""The serving command family: the HTTP query API and store upkeep.

``repro serve`` exposes one study's figures/tables/headlines (or a
``repro follow`` publisher's live windows) over HTTP with ETag
revalidation; ``repro store ls|gc|invalidate`` maintains the results
store behind it. The contract is docs/SERVING.md.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.core import report
from repro.exitcodes import EXIT_USAGE
from repro.store import ResultStore, make_server

from repro.cli._shared import (
    _add_checkpoint_arg,
    _add_study_args,
    _metrics,
    _serve,
    _store_source,
)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.live:
        if not args.store:
            print(
                "serve --live needs --store DIR (the store a `repro "
                "follow` publisher writes into)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        source = None
    else:
        source = _store_source(args)
    store_dir = args.store or tempfile.mkdtemp(prefix="repro-store-")
    store = ResultStore(store_dir, metrics=_metrics(args))
    server = make_server(
        source, store, host=args.host, port=args.port, quiet=args.quiet
    )
    host, port = server.server_address
    if args.live:
        print(
            f"serving live windows on http://{host}:{port} "
            f"(store: {store_dir})",
            flush=True,
        )
    else:
        print(
            f"serving study {server.study_id} on http://{host}:{port} "
            f"(store: {store_dir})",
            flush=True,
        )
    _serve(server, args.max_requests)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    store = ResultStore(args.store, metrics=_metrics(args))
    if args.store_command == "ls":
        entries = store.entries()
        rows = [
            (e.analysis, e.fingerprint[:12], e.policy, e.nbytes, e.etag)
            for e in entries
        ]
        print(
            report.render_table(
                ["analysis", "study", "policy", "bytes", "etag"],
                rows,
                title=f"results store: {args.store}",
            )
        )
        print(f"\n{len(entries)} entries")
        return 0
    if args.store_command == "gc":
        rows, files = store.gc()
        print(
            f"gc: removed {rows} unreadable entr{'y' if rows == 1 else 'ies'}"
            f", {files} orphan file(s)"
        )
        return 0
    if args.store_command == "invalidate":
        if not (args.fingerprint or args.analysis or args.all):
            print(
                "invalidate needs --fingerprint PREFIX, --analysis NAME "
                "or --all",
                file=sys.stderr,
            )
            return 2
        removed, files = store.invalidate(
            fingerprint=args.fingerprint,
            analysis=args.analysis,
            everything=args.all,
        )
        print(
            f"invalidated {removed} entr{'y' if removed == 1 else 'ies'} "
            f"({files} blob file(s) removed)"
        )
        return 0
    print(f"unknown store command {args.store_command!r}", file=sys.stderr)
    return 2


def add_serve(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="HTTP query API over one study's figures/tables/headlines",
    )
    _add_study_args(p)
    _add_checkpoint_arg(p)
    p.add_argument(
        "--store",
        metavar="DIR",
        help=(
            "persistent results store backing the server (default: a "
            "fresh temp directory, warm for this process only)"
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    p.add_argument(
        "--max-requests",
        type=int,
        metavar="N",
        help="exit after serving N requests (for tests and smoke runs)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-request logs"
    )
    p.add_argument(
        "--live",
        action="store_true",
        help=(
            "serve only the /live/ routes over the windows a `repro "
            "follow` publisher maintains in --store (no study readout)"
        ),
    )
    p.set_defaults(func=_cmd_serve)


def add_store(sub) -> None:
    p = sub.add_parser(
        "store", help="inspect and maintain a persistent results store"
    )
    p.add_argument(
        "--store", metavar="DIR", required=True, help="store directory"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    store_sub.add_parser("ls", help="list cached entries")
    store_sub.add_parser(
        "gc", help="drop unreadable entries, orphan blobs and stale locks"
    )
    sp = store_sub.add_parser(
        "invalidate", help="remove entries by study fingerprint or analysis"
    )
    sp.add_argument(
        "--fingerprint",
        metavar="PREFIX",
        help="remove entries whose study fingerprint starts with PREFIX",
    )
    sp.add_argument(
        "--analysis", help="remove entries of one analysis (e.g. fig3)"
    )
    sp.add_argument(
        "--all", action="store_true", help="empty the store entirely"
    )
    p.set_defaults(func=_cmd_store)
