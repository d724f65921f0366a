#!/usr/bin/env python3
"""One pipeline benchmark: generate -> parse -> attribute -> accumulate ->
checkpoint -> merge -> render -> store -> serve, on seeded workloads.

Run from the repository root::

    python3 benchmarks/pipeline/run.py --workload csv-ingest --seed 42 \\
        --seconds 12 --trace 0 [--out DIR]

``--workload all`` runs the four workloads in turn. Each run:

1. sets up ``SETUP_REPEATS`` times, each in its own child process (and,
   for serve-open, a fresh ``repro serve``), timing each as ``setup_s``;
2. measures for ``--seconds`` in a fresh child interpreter, so its peak
   memory excludes generation;
3. checks every output, untimed, and counts each wrong one as failed;
4. prints every metric as ``name value unit``, then, as the last line,
   ``{"correct", "attempted", "failed", "metrics"}`` as JSON: the
   end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its
   per-layer metrics.

``--out DIR`` also writes ``DIR/<workload>.result.json`` (host stamp,
every metric, raw samples) and, traced, ``DIR/<workload>.trace.json``.
Metric names and units come from BENCHMARK.json, the benchmark's
definition; README.md next to this file explains each one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
from tracing import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parents[1]
SRC = ROOT / "src"
WORK_ROOT = BENCH / ".work"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Per-child time limits (seconds), so a hung phase ends the run.
SETUP_TIMEOUT = 120
MEASURE_SLACK = 120
SERVER_READY_TIMEOUT = 60
SERVER_STOP_TIMEOUT = 15


class BenchError(RuntimeError):
    """A phase failed; the run ends without a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _phase(phase: str, args, directory: Path, timeout: float, url=None) -> dict:
    """Run one ``workloads.py`` phase in a fresh interpreter."""
    cmd = [
        sys.executable,
        str(BENCH / "workloads.py"),
        phase,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--dir", str(directory),
        "--seconds", str(args.seconds),
    ]
    if args.trace:
        cmd.append("--trace")
    if url:
        cmd += ["--url", url]
    if args.cpus:
        cmd += ["--cpus", ",".join(map(str, args.cpus))]
    try:
        subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=sys.stderr, timeout=timeout,
            check=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"{phase} phase of {args.workload} failed: {exc}") from exc
    return json.loads((directory / f"{phase}.json").read_text())


class Server:
    """One ``repro serve --from-checkpoint`` child, stopped with SIGINT."""

    def __init__(self, inputs: dict, directory: Path, cpus: List[int]) -> None:
        self.metrics_path = directory / "server-metrics.json"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--from-checkpoint", inputs["checkpoint"],
                "--store", inputs["store"],
                "--quiet", "--port", "0",
                "--metrics-json", str(self.metrics_path),
            ],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        )
        if len(cpus) > 1:
            # Its own CPU: the load generator keeps the first.
            os.sched_setaffinity(self.proc.pid, {cpus[1]})
        self.url = self._await_ready()

    def _await_ready(self) -> str:
        """The URL from the server's first stdout line."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=SERVER_READY_TIMEOUT):
                self.stop()
                raise BenchError("repro serve did not start in time")
        line = self.proc.stdout.readline()
        match = re.search(r"(http://\S+)", line)
        if match is None:
            self.stop()
            raise BenchError(f"repro serve did not report its address: {line!r}")
        return match.group(1)

    def peak_rss_mb(self) -> float:
        """The server's resident high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> dict:
        """SIGINT, wait, and return the metrics the server wrote on exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.metrics_path.exists():
            return json.loads(self.metrics_path.read_text())
        return {}


def _setup_layers(setup: dict) -> Dict[str, float]:
    """Per-layer metrics of one set-up, from its spans."""
    seconds: Dict[str, float] = {}
    for span in setup["spans"]:
        seconds[span["name"]] = seconds.get(span["name"], 0.0) + (
            span["end"] - span["start"]
        )
    layers = {f"{name}_s": value for name, value in seconds.items()}
    generate = seconds.get("workload.generate")
    if generate:
        layers["workload.generate_pkts_per_s"] = setup["packets"] / generate
    return layers


def _server_layers(report: dict, phase_wall: float) -> Dict[str, float]:
    """Per-layer metrics the server recorded over its life."""
    stages = {k: v["seconds"] for k, v in report.get("stages", {}).items()}
    counters = report.get("counters", {})
    hits, misses = counters.get("store.hits", 0), counters.get("store.misses", 0)
    return {
        "store.lookup_s": stages.get("store.lookup", 0.0),
        "store.render_s": stages.get("store.render", 0.0),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.puts": counters.get("store.puts", 0),
        "store.single_flight_waits": counters.get("store.single_flight_waits", 0),
        "serve.request_s": stages.get("serve.request", 0.0),
        "serve.requests": counters.get("serve.requests", 0),
        "serve.not_modified": counters.get("serve.not_modified", 0),
        "serve.busy_frac": stages.get("serve.request", 0.0) / phase_wall,
    }


def _pin() -> List[int]:
    """Pin this process, and so every child, to one CPU: each vCPU of a
    shared host drifts on its own, and a job is calibrated on the CPU it
    ran on. Returns the (at most two) CPUs a run uses; serve-open's
    server gets the second."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))[:2]
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


def _median_dicts(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    keys = set().union(*dicts)
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def _host() -> dict:
    cpu = None
    try:
        match = re.search(
            r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M
        )
        cpu = match.group(1) if match else None
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            sha = probe.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_workload(args, spec: dict):
    """Set up, measure and check one workload.

    Returns the result (host stamp, metrics, raw samples) and, traced,
    the spans of every set-up and of the measured phase.
    """
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    server: Optional[Server] = None
    try:
        setup_walls, setup_times, setups = [], [], []
        kernel = calibrate.kernel_seconds()
        for k in range(SETUP_REPEATS):
            directory = work / f"setup-{k}"
            started = time.perf_counter()
            setup = _phase("setup", args, directory, SETUP_TIMEOUT)
            if args.workload == "serve-open":
                ready = time.perf_counter()
                server = Server(setup, directory, args.cpus)
                setup["spans"].append(
                    {"name": "serve.startup", "start": ready, "end": time.perf_counter()}
                )
            wall = time.perf_counter() - started
            kernel_after = calibrate.kernel_seconds()
            setup_walls.append(wall)
            setup_times.append(calibrate.normalised(wall, kernel, kernel_after))
            kernel = kernel_after
            setups.append(setup)
            if k < SETUP_REPEATS - 1:
                if server is not None:
                    server.stop()
                    server = None
                shutil.rmtree(directory)
        measure = _phase(
            "measure", args, directory, args.seconds + MEASURE_SLACK,
            url=server.url if server else None,
        )
        if server is None:
            rss = measure["peak_rss_mb"]
        else:
            rss = server.peak_rss_mb()
            server_report = server.stop()
            server = None
            if args.trace:
                measure["layers"].update(
                    _server_layers(server_report, measure["phase_wall_s"])
                )
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "job_s": statistics.median(measure["job_s_values"]),
        "peak_rss_mb": rss,
    }
    per_layer = None
    if args.trace:
        per_layer = {m["name"]: 0 for m in spec["per_layer"]}
        measured = _median_dicts([_setup_layers(s) for s in setups])
        measured.update(measure["layers"])
        unknown = sorted(set(measured) - set(per_layer))
        if unknown:
            raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
        per_layer.update(measured)
    host = _host()
    host["numpy"] = measure["numpy"]
    host["cpus"] = args.cpus
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "host": host,
        "end_to_end": _with_units(end_to_end, spec["end_to_end"]),
        "per_layer": _with_units(per_layer, spec["per_layer"]) if per_layer else None,
        "attempted": measure["attempted"],
        "failed": measure["failed"],
        "error_ratio": measure["failed"] / measure["attempted"],
        "outputs_digest": measure["outputs_digest"],
        "failures": measure["failures"],
        "setup_wall_s": setup_walls,
        "job_wall_s": [r["wall_s"] for r in measure["reps"] if not r["traced"]],
        "reps": measure["reps"],
    }
    trace = None
    if args.trace:
        trace = {"setup": [s["spans"] for s in setups], "spans": measure["spans"]}
    return result, trace


def _with_units(values: Dict[str, float], defs: List[dict]) -> Dict[str, dict]:
    missing = [d["name"] for d in defs if d["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs}


def _write_out(result: dict, trace: Optional[dict], out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    name = result["workload"]
    (out / f"{name}.result.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace is not None:
        own = self_times(trace["spans"])
        for span in trace["spans"]:
            span["self"] = own[span["id"]]
        (out / f"{name}.trace.json").write_text(json.dumps(trace) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, help="write result and trace JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    args.cpus = _pin()

    for name in names if args.workload == "all" else [args.workload]:
        args.workload = name
        try:
            result, trace = run_workload(args, spec)
        except BenchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        metrics = result["per_layer"] if args.trace else result["end_to_end"]
        shown = dict(result["end_to_end"], **(result["per_layer"] or {}))
        for metric, entry in shown.items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        print(f"{name} outputs_digest {result['outputs_digest']}")
        if args.out is not None:
            _write_out(result, trace, args.out)
        print(
            json.dumps(
                {
                    "correct": result["failed"] == 0,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": metrics,
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
