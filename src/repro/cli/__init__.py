"""Command-line interface.

::

    repro generate --users 20 --days 56 --out study.npz
    repro figure 3 --dataset study.npz
    repro table 1 --users 10 --days 28
    repro report --users 20 --days 28
    repro report --models lte,nr --users 10 --days 14
    repro whatif --app com.sina.weibo --idle-days 3
    repro lab

Every analysis command accepts either ``--dataset FILE`` (a saved
study) or generation parameters (``--users/--days/--seed``), in which
case the study is generated on the fly. All of them also take
``--workers N`` (processes for study generation; 0 = one per CPU)
and ``--metrics-json FILE`` (timings, throughput and counters; ``-``
for stdout).

``figure``, ``table``, ``report`` and ``headlines`` additionally take
``--from-checkpoint CK.npz``: the totals-tier analyses (Figs 1-3,
Table 1, the background headlines) then run from a finished
``repro ingest`` checkpoint — byte-identical output, no packet arrays
ever loaded. Analyses that replay packets (Figs 4-6, Table 2, the
what-ifs) exit with a typed error naming the batch command to run
instead::

    repro ingest --dataset study.npz --checkpoint ck.npz
    repro figure fig3 --from-checkpoint ck.npz

``--store DIR`` (on ``figure 1-3``, ``table 1`` and ``headlines``)
answers from a persistent results store — first run renders and
caches, repeat runs are one lookup; ``--store-only`` never renders
(exit 4 on a miss). ``repro serve`` exposes the same artefacts over
HTTP with ETag revalidation, and ``repro store ls|gc|invalidate``
maintains a store directory. The contract is docs/SERVING.md::

    repro ingest --dataset study.npz --checkpoint ck.npz
    repro serve --from-checkpoint ck.npz --store results/ --port 8080
    curl http://127.0.0.1:8080/figures/fig3

Sharded runs pick their executor with ``--workers``: a count runs
shards in this box's process pool, and ``repro shard run PLAN
--workers URL,URL`` places them on a pool of ``repro shard worker``
processes (docs/SCALING.md documents the worker contract); a
worker-pool failure that leaves shards unplaced is exit 8
(:data:`~repro.exitcodes.EXIT_TRANSPORT_FAILED`).

This package is the CLI: one module per command family
(:mod:`~repro.cli.analyses`, :mod:`~repro.cli.serving`,
:mod:`~repro.cli.streaming`, :mod:`~repro.cli.sharding`) over the
shared helper kit (:mod:`~repro.cli._shared`), composed by
:mod:`~repro.cli.parser`. ``repro.cli`` re-exports the public surface
— ``main``, ``build_parser``, the ``EXIT_*`` codes and
``TABLE2_APPS`` — so import sites never see the layout.
"""

# Exit codes live in repro.exitcodes (the one table docs and tests
# check against); the names below are re-exported here because this
# package has always been their import site.
from repro.exitcodes import (
    EXIT_FOLLOW_INTERRUPTED,
    EXIT_NEEDS_PACKET_DETAIL,
    EXIT_OK,
    EXIT_SHARD_INCOMPLETE,
    EXIT_SOURCE_TRUNCATED,
    EXIT_STORE_MISS,
    EXIT_TRANSPORT_FAILED,
    EXIT_USAGE,
)

from repro.cli._shared import TABLE2_APPS
from repro.cli.parser import build_parser, main

__all__ = [
    "EXIT_FOLLOW_INTERRUPTED",
    "EXIT_NEEDS_PACKET_DETAIL",
    "EXIT_OK",
    "EXIT_SHARD_INCOMPLETE",
    "EXIT_SOURCE_TRUNCATED",
    "EXIT_STORE_MISS",
    "EXIT_TRANSPORT_FAILED",
    "EXIT_USAGE",
    "TABLE2_APPS",
    "build_parser",
    "main",
]
