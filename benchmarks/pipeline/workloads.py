"""The four pipeline workloads: seeded inputs, the timed job, and the
untimed check of every output.

``run.py`` runs this file as a child process, once per phase, so that
set-up and measurement each start from a fresh interpreter::

    python workloads.py setup   --workload W --seed N --size S --dir D [--trace]
    python workloads.py measure --workload W --seed N --size S --dir D \\
        --seconds T [--trace] [--url http://HOST:PORT]

Each phase writes its findings to ``D/<phase>.json``. Only public
``repro`` calls are used; every span is opened here, around them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import (
    CsvStreamSource,
    Dataset,
    NpzStreamSource,
    RunMetrics,
    StudyConfig,
    StudyEnergy,
    StreamIngestor,
    generate_study,
)
from repro.cli import TABLE2_APPS
from repro.core import (
    bytes_since_foreground,
    case_study_table,
    kill_policy_savings,
    persistence_durations,
    report,
    state_energy_fractions,
    top10_appearance_counts,
    top_consumers,
    trace_timeline,
)
from repro.core.headlines import headline_stats
from repro.core.readout import readout_from_checkpoint
from repro.policy import available_policies, evaluate_policy, get_policy
from repro.radio.registry import get_model
from repro.shard import LocalTransport, ShardManifest, merge_to_checkpoint
from repro.store import (
    ResultStore,
    render_analysis,
    render_headline_rows,
    store_key_for,
)
from repro.store.render import ANALYSIS_KINDS
from repro.trace import PacketArray
from repro.trace.events import EventLog
from repro.trace.io_text import dataset_from_csv, write_events_csv, write_packets_csv
from repro.trace.trace import UserTrace

import calibrate
import loadgen
from tracing import Tracer, attach_stages, layer_seconds, subtree

WORKLOADS = ("csv-ingest", "npz-shard-ingest", "report-policy", "serve-open")

#: (users, packets) of each workload's study. The generated study is cut
#: where its packet count reaches exactly this total, so the seed changes
#: *which* packets a run sees, never how many: run-to-run spread then
#: measures the program, not the input size. Scaled so one full pass of
#: all four workloads, ten seeds each, fits a CI-sized budget on 2 cores.
SIZES = {
    "full": {
        "csv-ingest": (8, 120_000),
        "npz-shard-ingest": (8, 240_000),
        "report-policy": (8, 120_000),
        "serve-open": (8, 120_000),
    },
    # For the benchmark's own tests. report-policy needs a Chrome
    # background episode for Fig 4, which a few thousand packets lack.
    "smoke": {
        "csv-ingest": (2, 4_000),
        "npz-shard-ingest": (2, 4_000),
        "report-policy": (2, 24_000),
        "serve-open": (2, 4_000),
    },
}

#: Days are generated for this many packets per user-day, fewer than
#: nearly every seed's users average, so one generation pass suffices
#: and set-up time does not depend on the seed.
PACKETS_PER_USER_DAY = 2500

#: serve-open load: open-loop rate (req/s), one cold refresh per this
#: many requests (4/s at 200 req/s), and requests per closed-loop burst.
SERVE_LOAD = {
    "full": {"rate": 200.0, "cold_every": 50, "burst": 200},
    "smoke": {"rate": 50.0, "cold_every": 10, "burst": 20},
}

#: Share of ``--seconds`` spent in serve-open's open-loop phase; the
#: rest runs closed-loop bursts.
OPEN_LOOP_SHARE = 0.5

#: Fewest timed job reps (bursts for serve-open) per run, whatever
#: ``--seconds`` says, so a median exists.
MIN_REPS = 3

#: The servable artefacts serve-open serves and npz-shard-ingest publishes.
ANALYSES = tuple(loadgen.ROUTES)

#: csv-ingest publishes all but Table 1: a study read from CSV knows only
#: the apps its files name, and Table 1 raises TraceError (instead of
#: skipping the app) when a case-study app never appears — which every
#: seed at this scale hits.
PUBLISHED = {
    "csv-ingest": tuple(name for name in ANALYSES if name != "table1"),
    "npz-shard-ingest": ANALYSES,
}

#: RunMetrics stages timed inside one StreamIngestor.run(); they are
#: sequential and never nest, so they can be attached to its span.
INGEST_STAGES = ("stream.read", "stream.attribute", "stream.checkpoint")
SHARD_STAGES = INGEST_STAGES + ("shard.source",)

#: Rows per streamed chunk (as in the repo's stream benches): well below
#: the average user's packet count, so peak memory is set by the chunk
#: size rather than by the seed's largest user, and carries between
#: chunks are exercised.
CHUNK_SIZE = 8192

N_SHARDS = 4


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _cut(trace: UserTrace, n_packets: int, end: float) -> UserTrace:
    """The user's first ``n_packets`` packets and events up to ``end``."""
    events = trace.events
    return UserTrace(
        trace.user_id,
        trace.start,
        end,
        PacketArray(trace.packets.data[:n_packets].copy()),
        EventLog(
            [e for e in events.process_events if e.timestamp <= end],
            [e for e in events.screen_events if e.timestamp <= end],
            [e for e in events.input_events if e.timestamp <= end],
        ),
    )


def fixed_size_study(n_users: int, n_packets: int, seed: int) -> Dataset:
    """A generated study of exactly ``n_packets`` packets: its first
    ``n_packets`` in time order, every user observed up to that moment."""
    days = math.ceil(n_packets / (n_users * PACKETS_PER_USER_DAY))
    while True:
        dataset = generate_study(
            StudyConfig(n_users=n_users, duration_days=days, seed=seed)
        )
        if dataset.total_packets >= n_packets:
            break
        days *= 2
    times = np.concatenate([user.packets.timestamps for user in dataset])
    owner = np.concatenate(
        [np.full(len(user.packets), i) for i, user in enumerate(dataset)]
    )
    first = np.lexsort((owner, times))[:n_packets]
    kept = np.bincount(owner[first], minlength=len(dataset))
    end = float(times[first[-1]])
    return Dataset(
        dataset.registry,
        [_cut(user, int(k), end) for user, k in zip(dataset, kept)],
        dict(dataset.metadata, packets=n_packets),
    )


def setup(workload: str, seed: int, size: str, directory: Path, tracer: Tracer) -> dict:
    """Write the workload's seeded inputs under ``directory``."""
    n_users, n_packets = SIZES[size][workload]
    directory.mkdir(parents=True, exist_ok=True)
    with tracer.span("workload.generate"):
        dataset = fixed_size_study(n_users, n_packets, seed)
    inputs = {"packets": dataset.total_packets}
    if workload == "csv-ingest":
        files = []
        with tracer.span("trace.write_csv"):
            for user in dataset:
                packets = directory / f"packets_{user.user_id}.csv"
                events = directory / f"events_{user.user_id}.csv"
                write_packets_csv(packets, user.packets, dataset.registry)
                write_events_csv(events, user.events, dataset.registry)
                files.append([str(packets), str(events)])
        inputs["csv"] = files
        return inputs
    with tracer.span("trace.save_npz"):
        inputs["npz"] = str(dataset.save(directory / "study.npz"))
    if workload == "serve-open":
        checkpoint = directory / "study.ckpt.npz"
        with tracer.span("stream.setup_ingest"):
            StreamIngestor(
                NpzStreamSource(inputs["npz"]), workers=1, checkpoint_path=checkpoint
            ).run()
        inputs["checkpoint"] = str(checkpoint)
        inputs["store"] = str(directory / "store")
    return inputs


# ----------------------------------------------------------------------
# Jobs: inputs on disk -> every artefact produced
# ----------------------------------------------------------------------
def _publish(
    checkpoint: Path, store_dir: Path, analyses, tracer: Tracer
) -> Dict[str, str]:
    """readout_from_checkpoint -> render_analysis -> ResultStore.put."""
    with tracer.span("core.readout_load"):
        readout = readout_from_checkpoint(checkpoint)
    with tracer.span("store.open"):
        store = ResultStore(store_dir)
    texts = {}
    for name in analyses:
        with tracer.span("store.render"):
            text = render_analysis(name, readout)
        with tracer.span("store.put"):
            store.put(
                store_key_for(readout, name),
                text.encode("utf-8"),
                kind=ANALYSIS_KINDS[name],
            )
        texts[name] = text
    return texts


def csv_ingest_job(inputs: dict, rep_dir: Path, tracer: Tracer):
    metrics = RunMetrics()
    with tracer.span("trace.csv_prepass"):
        source = CsvStreamSource(
            [tuple(pair) for pair in inputs["csv"]], chunk_size=CHUNK_SIZE
        )
    checkpoint = rep_dir / "study.ckpt.npz"
    with tracer.span("stream.ingest") as span:
        StreamIngestor(
            source, workers=1, checkpoint_path=checkpoint, metrics=metrics
        ).run()
        attach_stages(span, metrics.as_dict(), INGEST_STAGES)
    texts = _publish(checkpoint, rep_dir / "store", PUBLISHED["csv-ingest"], tracer)
    counts = dict(metrics.as_dict()["counters"])
    # The prepass and the ingest each parse every row once.
    counts["trace.rows_parsed"] = 2 * sum(source.n_packets(u) for u in source.user_ids)
    return texts, counts


def npz_shard_ingest_job(inputs: dict, rep_dir: Path, tracer: Tracer):
    metrics = RunMetrics()
    with tracer.span("stream.open_source"):
        source = NpzStreamSource(inputs["npz"], chunk_size=CHUNK_SIZE)
    with tracer.span("shard.plan"):
        manifest = ShardManifest.plan(source, N_SHARDS)
        manifest.save(rep_dir / "plan.json")
    shard_dir = rep_dir / "shards"
    with tracer.span("shard.dispatch") as span:
        LocalTransport(shard_workers=1).dispatch(manifest, shard_dir, metrics=metrics)
        attach_stages(span, metrics.as_dict(), SHARD_STAGES)
    checkpoint = rep_dir / "study.ckpt.npz"
    with tracer.span("shard.merge"):
        merge_to_checkpoint(manifest, shard_dir, checkpoint, metrics=metrics)
    texts = _publish(
        checkpoint, rep_dir / "store", PUBLISHED["npz-shard-ingest"], tracer
    )
    return texts, dict(metrics.as_dict()["counters"])


def report_policy_job(inputs: dict, rep_dir: Path, tracer: Tracer):
    """The ``repro report`` analyses and every registered policy, under
    both radio models, from one ``Dataset.load``."""
    metrics = RunMetrics()
    with tracer.span("trace.load_npz"):
        dataset = Dataset.load(inputs["npz"])
    texts = {}
    for model in ("lte", "nr"):
        with tracer.span("radio.attribute"):
            study = StudyEnergy(dataset, get_model(model), workers=1, metrics=metrics)
        with tracer.span("core.index_build"):
            study.prepare_indexes()
        for name, render in _report_analyses(dataset, study):
            with tracer.span(f"core.report.{name}"):
                texts[f"{model}/{name}"] = render()
        for name in available_policies():
            with tracer.span(f"policy.{name}"):
                result = evaluate_policy(study, get_policy(name), apps=TABLE2_APPS)
            texts[f"{model}/policy/{name}"] = repr(result)
    return texts, dict(metrics.as_dict()["counters"])


#: The sections ``repro report`` renders, in its order.
REPORT_SECTIONS = (
    "headlines", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "table2",
)


def _report_analyses(dataset: Dataset, study: StudyEnergy):
    """:data:`REPORT_SECTIONS` as (name, renderer) pairs."""
    chrome = "com.android.chrome"

    def table2() -> str:
        # The paper's Table 2 apps that this study gives energy to: a
        # small study may lack some, and kill_policy_savings refuses those.
        energy = study.energy_by_app()
        return report.render_table2(
            [
                kill_policy_savings(study, app)
                for app in TABLE2_APPS
                if energy.get(dataset.registry.id_of(app), 0.0) > 0
            ]
        )

    return (
        ("headlines", lambda: render_headline_rows(headline_stats(study))),
        ("fig1", lambda: report.render_fig1(top10_appearance_counts(dataset))),
        (
            "fig2",
            lambda: report.render_fig2(
                top_consumers(study, by="energy"), top_consumers(study, by="data")
            ),
        ),
        ("fig3", lambda: report.render_fig3(state_energy_fractions(study))),
        ("fig4", lambda: report.render_fig4(trace_timeline(dataset, chrome))),
        ("fig5", lambda: report.render_fig5(persistence_durations(dataset, app=chrome))),
        ("fig6", lambda: report.render_fig6(*bytes_since_foreground(dataset))),
        ("table1", lambda: report.render_table1(case_study_table(study))),
        ("table2", table2),
    )


JOBS: Dict[str, Callable] = {
    "csv-ingest": csv_ingest_job,
    "npz-shard-ingest": npz_shard_ingest_job,
    "report-policy": report_policy_job,
}


# ----------------------------------------------------------------------
# References and digests (untimed)
# ----------------------------------------------------------------------
def digest(texts: Dict[str, str]) -> str:
    """blake2b over every artefact, in name order."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(texts):
        h.update(name.encode("utf-8") + b"\0" + texts[name].encode("utf-8") + b"\0")
    return h.hexdigest()


def artefact_digests(texts: Dict[str, str]) -> Dict[str, str]:
    return {name: digest({name: text}) for name, text in texts.items()}


def batch_reference(workload: str, inputs: dict) -> Dict[str, str]:
    """The ingest artefacts rendered by the batch path over the same
    inputs: dataset_from_csv / Dataset.load -> StudyEnergy -> render."""
    if workload == "csv-ingest":
        dataset = dataset_from_csv([tuple(pair) for pair in inputs["csv"]])
    else:
        dataset = Dataset.load(inputs["npz"])
    study = StudyEnergy(dataset, workers=1)
    return {name: render_analysis(name, study) for name in PUBLISHED[workload]}


def mismatches(produced: Dict[str, str], expected: Dict[str, str]) -> List[str]:
    """Names whose digest differs from the reference (or is missing)."""
    return sorted(
        name
        for name in set(produced) | set(expected)
        if produced.get(name) != expected.get(name)
    )


def check_reps(reps: List[dict], expected: Optional[Dict[str, str]]) -> None:
    """Mark each rep failed when its artefacts differ from ``expected``
    (per-artefact digests) — or, with no reference, from the first rep."""
    if expected is None:
        expected = reps[0]["digests"]
    for rep in reps:
        if rep["error"] is None:
            bad = mismatches(rep["digests"], expected)
            if bad:
                rep["error"] = f"outputs differ from the reference: {', '.join(bad)}"


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean_dicts(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    keys = set().union(*dicts) if dicts else set()
    return {k: sum(d.get(k, 0.0) for d in dicts) / len(dicts) for k in keys}


def overhead_pct(traced: List[float], untraced: List[float]) -> float:
    """Traced vs untraced median, as a percentage of the untraced one."""
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


def measure_batch(
    workload: str, inputs: dict, seconds: float, trace: bool, directory: Path
) -> dict:
    """Run job reps for ``seconds`` (at least :data:`MIN_REPS`), fresh
    directories each; with ``trace``, every other rep is traced."""
    tracer = Tracer(enabled=False)
    job = JOBS[workload]
    reps = []
    kernel = calibrate.kernel_seconds()
    started = time.perf_counter()
    while len(reps) < MIN_REPS + (MIN_REPS if trace else 0) or (
        time.perf_counter() - started < seconds
    ):
        index = len(reps)
        tracer.enabled = trace and index % 2 == 0
        rep_dir = directory / f"rep-{index}"
        rep_dir.mkdir(parents=True)
        error, texts, counts = None, {}, {}
        t0 = time.perf_counter()
        try:
            with tracer.span("job", op=index) as span:
                texts, counts = job(inputs, rep_dir, tracer)
        except Exception as exc:  # a failed rep is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        shutil.rmtree(rep_dir)
        kernel_after = calibrate.kernel_seconds()
        reps.append(
            {
                "rep": index,
                "wall_s": wall,
                "job_s": calibrate.normalised(wall, kernel, kernel_after),
                "kernel_s": (kernel + kernel_after) / 2,
                "traced": tracer.enabled,
                "span": span.id,
                "error": error,
                "digests": artefact_digests(texts),
                "outputs_digest": digest(texts),
                "counts": counts,
            }
        )
        kernel = kernel_after
    rss = peak_rss_mb()
    expected = None
    if workload != "report-policy":
        expected = artefact_digests(batch_reference(workload, inputs))
    check_reps(reps, expected)
    out = {
        "reps": reps,
        "job_s_values": [r["job_s"] for r in reps if not r["traced"]],
        "peak_rss_mb": rss,
        "attempted": len(reps),
        "failed": sum(r["error"] is not None for r in reps),
        "failures": [r["error"] for r in reps if r["error"] is not None][:20],
        "outputs_digest": reps[0]["outputs_digest"],
    }
    if trace:
        spans = tracer.as_list()
        traced = [r for r in reps if r["traced"]]
        seconds_by_name = _mean_dicts(
            [layer_seconds(subtree(spans, r["span"])) for r in traced]
        )
        counts = _mean_dicts([r["counts"] for r in traced])
        layers = batch_layer_metrics(seconds_by_name, counts)
        # Self times partition the job span, so they sum to its duration.
        layers["job.wall_s"] = sum(seconds_by_name.values())
        layers["trace_overhead_pct"] = overhead_pct(
            [r["job_s"] for r in traced], out["job_s_values"]
        )
        layers["host.kernel_ms"] = 1000.0 * statistics.median(
            r["kernel_s"] for r in traced
        )
        out["layers"] = layers
        out["spans"] = spans
    for rep in reps:  # used above; too bulky for the result file
        del rep["digests"], rep["counts"]
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def batch_layer_metrics(sec: Dict[str, float], counts: Dict[str, float]) -> dict:
    """Per-layer metrics of one traced batch rep (means over reps)."""
    def s(name):
        return sec.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    layers = {
        "job.unaccounted_s": s("job.unaccounted"),
        "trace.csv_prepass_s": s("trace.csv_prepass"),
        "trace.parse_rows_per_s": _rate(
            c("trace.rows_parsed"), s("trace.csv_prepass") + s("stream.read")
        ),
        "trace.load_npz_s": s("trace.load_npz"),
        "stream.read_s": s("stream.read"),
        "stream.attribute_s": s("stream.attribute"),
        "stream.attribute_pkts_per_s": _rate(c("stream.packets"), s("stream.attribute")),
        "stream.checkpoint_s": s("stream.checkpoint"),
        "stream.packets": c("stream.packets"),
        "stream.chunks": c("stream.chunks"),
        "shard.plan_s": s("shard.plan"),
        "shard.dispatch_s": s("shard.dispatch"),
        "shard.merge_s": s("shard.merge"),
        "shard.completed": c("shard.completed"),
        "shard.failed": c("shard.failed"),
        "core.readout_load_s": s("core.readout_load"),
        "core.index_build_s": s("core.index_build"),
        "core.index_hits": c("index.hits"),
        "radio.attribute_s": s("radio.attribute"),
        "radio.attribute_pkts_per_s": _rate(
            c("attribution.packets"), s("radio.attribute")
        ),
        "store.render_s": s("store.render"),
        "store.put_s": s("store.put"),
    }
    for name in REPORT_SECTIONS:
        layers[f"core.report.{name}_s"] = s(f"core.report.{name}")
    for name in available_policies():
        layers[f"policy.{name}_s"] = s(f"policy.{name}")
    return layers


# ----------------------------------------------------------------------
# serve-open: the client side (run.py owns the server process)
# ----------------------------------------------------------------------
class ServeClient:
    """Sends mix ops to one ``repro serve`` and checks every response
    against the bytes and ETags rendered from the same checkpoint."""

    def __init__(self, url: str, inputs: dict, tracer: Tracer) -> None:
        host, port = url.rsplit("//", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)
        readout = readout_from_checkpoint(inputs["checkpoint"])
        self.reference = {
            name: render_analysis(name, readout).encode("utf-8") for name in ANALYSES
        }
        self.etags = {name: store_key_for(readout, name).etag() for name in ANALYSES}
        self.metrics = RunMetrics()
        self.store = ResultStore(inputs["store"], metrics=self.metrics)
        self.tracer = tracer
        self.invalidate_s: List[float] = []

    def send(self, op: loadgen.Op, parent=None):
        with self.tracer.span(f"serve.{op.kind}", op=op.index, parent=parent):
            if op.kind == "cold":
                t0 = time.perf_counter()
                with self.tracer.span("store.invalidate"):
                    self.store.invalidate(analysis=op.analysis)
                self.invalidate_s.append(time.perf_counter() - t0)
            return loadgen.http_get(
                self.host,
                self.port,
                loadgen.ROUTES[op.analysis],
                self.etags[op.analysis] if op.kind == "cond" else None,
            )

    def check(self, outcome: loadgen.Outcome) -> Optional[str]:
        """Why this response is wrong, or ``None``: a 200 must carry the
        reference bytes and ETag; a 304 only answers a matching ETag."""
        if outcome.error is not None:
            return outcome.error
        status, etag, body = outcome.value
        name = outcome.op.analysis
        if etag != self.etags[name]:
            return f"{name}: ETag {etag!r}, expected {self.etags[name]!r}"
        if status == 200 and body == self.reference[name]:
            return None
        if status == 304 and outcome.op.kind == "cond":
            return None
        return f"{name}: status {status} for a {outcome.op.kind} op ({len(body)} bytes)"


def _ms(values: List[float], q: float) -> float:
    return 1000.0 * loadgen.percentile(values, q) if values else 0.0


def measure_serve(
    inputs: dict,
    seconds: float,
    trace: bool,
    url: str,
    seed: int,
    size: str,
    cpus: List[int],
) -> dict:
    """Open-loop phase at a fixed rate, then closed-loop bursts.

    The job is one burst: a fixed mix of requests, cold refreshes
    included, drained by two clients as fast as the server answers.
    With ``trace``, every other burst is traced; the open loop's
    latencies come from the load generator, untraced. This client runs
    on the first of ``cpus`` and the server on the second, so bursts are
    calibrated on both.
    """
    load = SERVE_LOAD[size]
    tracer = Tracer(enabled=False)
    client = ServeClient(url, inputs, tracer)
    failures: List[str] = []

    def run(ops, rate=None, parent=None):
        outcomes, wall = loadgen.run_ops(
            ops, lambda op: client.send(op, parent), workers=2, rate=rate
        )
        for outcome in outcomes:
            problem = client.check(outcome)
            if problem is not None:
                failures.append(problem)
        return outcomes, wall

    # Warm-up: one plain GET per artefact, so the open loop reads warm.
    warm, _ = run([loadgen.Op(i, "get", name) for i, name in enumerate(ANALYSES)])

    n_open = max(1, int(load["rate"] * seconds * OPEN_LOOP_SHARE))
    open_ops = loadgen.build_mix(n_open, load["cold_every"], seed)
    open_outcomes, open_wall = run(open_ops, rate=load["rate"])

    bursts = []
    kernel = calibrate.kernel_seconds(cpus)
    burst_started = time.perf_counter()
    while len(bursts) < MIN_REPS + (MIN_REPS if trace else 0) or (
        time.perf_counter() - burst_started < seconds * (1 - OPEN_LOOP_SHARE)
    ):
        index = len(bursts)
        tracer.enabled = trace and index % 2 == 0
        ops = loadgen.build_mix(load["burst"], load["cold_every"], seed + 1 + index)
        with tracer.span("job", op=f"burst-{index}") as job:
            _, wall = run(ops, parent=job)
        kernel_after = calibrate.kernel_seconds(cpus)
        bursts.append(
            {
                "burst": index,
                "wall_s": wall,
                "job_s": calibrate.normalised(wall, kernel, kernel_after),
                "kernel_s": (kernel + kernel_after) / 2,
                "traced": tracer.enabled,
                "span": job.id,
            }
        )
        kernel = kernel_after
    burst_wall = time.perf_counter() - burst_started

    untraced = [b["job_s"] for b in bursts if not b["traced"]]
    out = {
        "reps": bursts,
        "job_s_values": untraced,
        "attempted": len(warm) + len(open_outcomes) + len(bursts) * load["burst"],
        "failed": len(failures),
        "failures": failures[:20],
        "outputs_digest": digest(
            {name: body.decode("utf-8") for name, body in client.reference.items()}
        ),
        "phase_wall_s": open_wall + burst_wall,
    }
    if trace:
        spans = tracer.as_list()
        traced = [b for b in bursts if b["traced"]]
        jobs = [layer_seconds(subtree(spans, b["span"])) for b in traced]
        late = [o.lateness for o in open_outcomes]
        everything = [o.latency for o in open_outcomes]
        by_kind = {
            kind: [o.latency for o in open_outcomes if o.op.kind == kind]
            for kind in ("get", "cond", "cold")
        }
        out["layers"] = {
            "job.wall_s": statistics.fmean(b["wall_s"] for b in traced),
            "job.unaccounted_s": _mean_dicts(jobs).get("job.unaccounted", 0.0),
            "trace_overhead_pct": overhead_pct(
                [b["job_s"] for b in traced], untraced
            ),
            "host.kernel_ms": 1000.0 * statistics.median(b["kernel_s"] for b in traced),
            "serve.p50_ms": _ms(everything, 50),
            "serve.p99_ms": _ms(everything, 99),
            "serve.get200_p50_ms": _ms(by_kind["get"], 50),
            "serve.get200_p99_ms": _ms(by_kind["get"], 99),
            "serve.get304_p50_ms": _ms(by_kind["cond"], 50),
            "serve.get304_p99_ms": _ms(by_kind["cond"], 99),
            "serve.cold_p50_ms": _ms(by_kind["cold"], 50),
            "serve.max_rps": load["burst"]
            / statistics.median(b["wall_s"] for b in bursts if not b["traced"]),
            "store.invalidate_ms": _ms(client.invalidate_s, 50),
            "store.invalidated": client.metrics.counter("store.invalidated"),
            "loadgen.late_p99_ms": _ms(late, 99),
            "loadgen.late_max_ms": 1000.0 * max(late),
        }
        out["spans"] = spans
    return out


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--url")
    parser.add_argument(
        "--cpus", type=lambda text: [int(c) for c in text.split(",")], default=[]
    )
    args = parser.parse_args(argv)
    if args.phase == "setup":
        tracer = Tracer(enabled=args.trace)
        result = setup(args.workload, args.seed, args.size, args.dir, tracer)
        result["spans"] = tracer.as_list()
    else:
        inputs = json.loads((args.dir / "setup.json").read_text())
        if args.workload == "serve-open":
            result = measure_serve(
                inputs, args.seconds, args.trace, args.url, args.seed, args.size,
                args.cpus,
            )
        else:
            result = measure_batch(
                args.workload, inputs, args.seconds, args.trace, args.dir
            )
        result["numpy"] = np.__version__
    (args.dir / f"{args.phase}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
