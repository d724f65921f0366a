"""Checks of the pipeline benchmark itself, on smoke-sized inputs.

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q

Outside tier-1's ``testpaths``: each workload runs end to end (set-up,
measure, verify) for about a second, traced and untraced.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import loadgen
import workloads
from tracing import Tracer, layer_seconds, subtree, tree_errors

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, out: Path) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "smoke", "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((out / f"{workload}.result.json").read_text())
    trace_file = out / f"{workload}.trace.json"
    spans = json.loads(trace_file.read_text())["spans"] if trace else None
    return {"line": line, "result": result, "spans": spans}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    return {
        (workload, trace): _run(
            workload, trace, tmp_path_factory.mktemp(f"{workload}-{trace}")
        )
        for workload in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_metric_emitted_with_its_unit(runs, workload, trace, section):
    line = runs[workload, trace]["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: entry["unit"] for name, entry in line["metrics"].items()}
    assert emitted == expected
    for name, entry in line["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        if section == "end_to_end":
            assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_trees_well_formed(runs, workload):
    run = runs[workload, 1]
    spans = run["spans"]
    assert spans, "a traced run recorded no spans"
    assert tree_errors(spans) == []
    layers = run["result"]["per_layer"]
    assert layers["job.unaccounted_s"]["value"] >= 0
    if workload == "serve-open":
        return  # two clients: request spans overlap, so self times do not add up
    for rep in run["result"]["reps"]:
        if rep["traced"]:
            job = subtree(spans, rep["span"])
            wall = job[0]["end"] - job[0]["start"]
            assert sum(layer_seconds(job).values()) == pytest.approx(wall, rel=1e-9)


def test_tampered_reference_counts_as_error(tmp_path, monkeypatch):
    inputs = workloads.setup("npz-shard-ingest", 7, "smoke", tmp_path, Tracer(False))
    honest = workloads.batch_reference("npz-shard-ingest", inputs)
    tampered = dict(honest, fig3=honest["fig3"] + " ")
    monkeypatch.setattr(workloads, "batch_reference", lambda *_: tampered)
    out = workloads.measure_batch("npz-shard-ingest", inputs, 0, False, tmp_path)
    assert out["attempted"] == workloads.MIN_REPS
    assert out["failed"] == out["attempted"]
    assert all("fig3" in rep["error"] for rep in out["reps"])


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    stall, rate = 0.2, 100.0  # both workers stall; ops due every 10 ms

    def send(op):
        if op.index < 2:
            time.sleep(stall)

    ops = [loadgen.Op(i, "get", "fig1") for i in range(12)]
    outcomes, _ = loadgen.run_ops(ops, send, workers=2, rate=rate)
    for outcome in outcomes[2:]:
        due_offset = outcome.op.index / rate
        # Queued behind the stall: charged the wait from its due time.
        assert outcome.latency >= stall - due_offset - 0.005
        assert outcome.lateness >= stall - due_offset - 0.005
    closed, _ = loadgen.run_ops(ops, send, workers=2)
    assert max(o.latency for o in closed[2:]) < stall / 2


@pytest.mark.parametrize(
    "parent,change,expected",
    [
        ([1.0] * 10, [0.8] * 10, "gain"),
        ([1.0] * 10, [1.2] * 10, "regression"),
        ([1.0] * 10, [1.05] * 10, "within bound"),
        ([0.5, 1.0, 1.5, 1.0] * 3, [1.0] * 12, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "lower", 0.1)[0] == expected
