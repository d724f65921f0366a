#!/usr/bin/env python3
"""Compare a parent result set with a change result set.

    python3 benchmarks/pipeline/compare.py PARENT CHANGE

PARENT and CHANGE are directories (searched recursively) or files of
``<workload>.result.json``, as ``run.py --out`` writes them; traced
runs are skipped, because end-to-end metrics come from untraced ones.
Runs pair up in path order, so run them alternately (parent, change,
parent, ...) into numbered directories.

One row per workload x end-to-end metric of BENCHMARK.json: each
side's median and quartiles, the share of pairs the change wins, and a
verdict under the benchmark's own rules:

* ``unresolved`` — either side's spread (quartile distance over
  median) exceeds the metric's bound, unless every change run reads
  better than every parent run;
* ``regression`` — the change's median is worse than the parent's by
  more than the bound;
* ``gain`` — the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
* ``within bound`` — none of the above.

A change of ``outputs_digest`` on the same seed, or a higher
``error_ratio`` than the parent's, is flagged. Exits 1 when a
regression or a flag is found.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

#: Share of pairs the change must win before a gain may be claimed.
WIN_SHARE = 0.9


def load_results(path: Path) -> Dict[str, List[dict]]:
    """Untraced results under ``path``, by workload, in path order."""
    files = [path] if path.is_file() else sorted(path.rglob("*.result.json"))
    by_workload: Dict[str, List[dict]] = {}
    for file in files:
        result = json.loads(file.read_text())
        if not result["traced"]:
            by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float):
    """(verdict, win share) for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    share = wins / len(pairs)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    spread = max((p3 - p1) / pmed, (c3 - c1) / cmed)
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not every_better:
        return "unresolved", share
    if sign * (cmed - pmed) / pmed > bound:
        return "regression", share
    if share >= WIN_SHARE and abs(cmed - pmed) > p3 - p1:
        return "gain", share
    return "within bound", share


def _fmt(values) -> str:
    return "/".join(f"{v:.4g}" for v in values)


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent = load_results(parent_dir)
    change = load_results(change_dir)
    bad = 0
    header = (
        f"{'workload':<18} {'metric':<12} {'parent q1/med/q3':>28} "
        f"{'change q1/med/q3':>28} {'wins':>6}  verdict"
    )
    print(header)
    print("-" * len(header))
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:<18} missing on one side "
                  f"(parent {len(p_runs)} runs, change {len(c_runs)})")
            bad += 1
            continue
        n = min(len(p_runs), len(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["end_to_end"][name]["value"] for r in p_runs[:n]]
            c = [r["end_to_end"][name]["value"] for r in c_runs[:n]]
            result, share = verdict(p, c, metric["better"], metric["bound"])
            bad += result == "regression"
            print(
                f"{workload:<18} {name:<12} {_fmt(quartiles(p)):>28} "
                f"{_fmt(quartiles(c)):>28} {share:>6.0%}  {result}"
            )
        digests: Dict[int, set] = {}
        for run in p_runs + c_runs:
            digests.setdefault(run["seed"], set()).add(run["outputs_digest"])
        for seed, seen in sorted(digests.items()):
            if len(seen) > 1:
                print(f"{workload:<18} FLAG outputs_digest differs on seed "
                      f"{seed}: {sorted(seen)}")
                bad += 1
        p_err = max(r["error_ratio"] for r in p_runs)
        c_err = max(r["error_ratio"] for r in c_runs)
        if c_err > p_err:
            print(f"{workload:<18} FLAG error_ratio rose: {p_err:.4g} -> {c_err:.4g}")
            bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--benchmark", type=Path, default=ROOT / "BENCHMARK.json",
        help="the benchmark definition holding the bounds",
    )
    args = parser.parse_args(argv)
    return compare(args.parent, args.change, json.loads(args.benchmark.read_text()))


if __name__ == "__main__":
    sys.exit(main())
