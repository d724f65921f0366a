"""TraceIndex benchmarks: indexed vs masked figure-suite reductions.

Quantifies the tentpole claim behind :mod:`repro.trace.index`: the
figure/table analyses used to rediscover per-app and per-state groups
with full-array boolean masks, making every figure O(apps x packets);
the shared index pays one stable sort per user and serves O(group)
views after that. Both paths are run here over the shared 20-user bench
study and must produce bit-identical numbers — the speedup is reported
alongside the index's own accounting (``index.build`` seconds and
``index.hits`` from :class:`~repro.metrics.RunMetrics`).
"""

from __future__ import annotations

import time

import numpy as np

from repro import RunMetrics, StudyConfig, StudyEnergy, generate_study
from repro.core import report
from repro.core.casestudies import case_study_table
from repro.core.popularity import top10_appearance_counts, top_consumers
from repro.core.statefrac import state_energy_share
from repro.trace.events import background_state_values
from repro.units import DAY

from conftest import write_artifact

#: How many top apps the per-app reduction suite probes. The full
#: report probes every app several times (Fig 1-3, Table 1, the
#: recommendation sweep), so a wide sweep is the representative shape —
#: and it is exactly where masked scans hurt: their cost is one full
#: O(n) pass per (app, reduction, user) regardless of group size.
SUITE_APPS = 80


def _masked_suite(study, app_ids):
    """The pre-index figure-suite kernel: one full-array boolean mask
    per (app, reduction, user) — exactly what repro.core used to do."""
    bg_values = background_state_values()
    out = {}
    for app_id in app_ids:
        energy = 0.0
        bg_energy = 0.0
        volume = 0
        bins = np.zeros(24)
        for trace in study.dataset:
            packets = trace.packets
            per_packet = study.user_result(trace.user_id).per_packet
            mask = packets.apps == app_id
            if not np.any(mask):
                continue
            energy += float(per_packet[mask].sum())
            volume += int(packets.sizes.astype(np.int64)[mask].sum())
            bg = mask & np.isin(packets.states, bg_values)
            bg_energy += float(per_packet[bg].sum())
            hours = (
                ((packets.timestamps[mask] - trace.start) % DAY) // 3600
            ).astype(np.int64)
            bins += np.bincount(
                np.clip(hours, 0, 23), weights=per_packet[mask], minlength=24
            )
        out[app_id] = (energy, bg_energy, volume, tuple(float(v) for v in bins))
    return out


def _indexed_suite(study, app_ids):
    """The same reductions through the shared per-user TraceIndex."""
    out = {}
    for app_id in app_ids:
        energy = 0.0
        bg_energy = 0.0
        volume = 0
        bins = np.zeros(24)
        for trace in study.dataset:
            index = study.index_for(trace.user_id)
            idx = index.app_indices(app_id)
            if len(idx) == 0:
                continue
            per_packet = study.user_result(trace.user_id).per_packet
            energy += float(per_packet[idx].sum())
            volume += int(trace.packets.sizes.astype(np.int64)[idx].sum())
            bg_energy += float(
                per_packet[index.app_background_indices(app_id)].sum()
            )
            hours = (
                ((trace.packets.timestamps[idx] - trace.start) % DAY) // 3600
            ).astype(np.int64)
            bins += np.bincount(
                np.clip(hours, 0, 23), weights=per_packet[idx], minlength=24
            )
        out[app_id] = (energy, bg_energy, volume, tuple(float(v) for v in bins))
    return out


def test_indexed_suite_identity_and_speedup(bench_dataset, output_dir):
    """Indexed reductions must be bit-identical and measurably faster.

    The speedup floor is modest (1.2x) because the suite includes the
    one-off sort the index pays up front; the asymptotic win grows with
    the number of figures sharing the index (every memo-served access
    after this suite is effectively free, visible in ``index.hits``).
    """
    metrics = RunMetrics()
    study = StudyEnergy(bench_dataset, lazy=True, metrics=metrics)
    totals = study.energy_by_app()
    app_ids = sorted(totals, key=lambda a: totals[a], reverse=True)[:SUITE_APPS]

    start = time.perf_counter()
    masked = _masked_suite(study, app_ids)
    t_masked = time.perf_counter() - start

    # fresh traces so the indexed run pays its own sort, not a warm memo
    for trace in study.dataset:
        trace.invalidate_index()
    start = time.perf_counter()
    indexed = _indexed_suite(study, app_ids)
    t_indexed = time.perf_counter() - start

    assert indexed == masked  # dict of floats/ints — exact, not allclose

    build_s = metrics.stage_seconds("index.build")
    hits = metrics.counter("index.hits")
    speedup = t_masked / t_indexed if t_indexed else float("inf")
    summary = (
        f"figure-suite reductions over {len(app_ids)} apps x "
        f"{len(study.dataset)} users ({bench_dataset.total_packets} packets):\n"
        f"  masked scans: {t_masked:.3f}s\n"
        f"  TraceIndex:   {t_indexed:.3f}s (index.build {build_s:.3f}s, "
        f"index.hits {hits})\n"
        f"  speedup:      {speedup:.2f}x"
    )
    write_artifact(output_dir, "bench_index.txt", summary)
    assert hits > 0
    assert speedup >= 1.2, f"indexed suite only {speedup:.2f}x faster"


def test_prebuilt_indexes_render_identical_figures(output_dir):
    """`prepare_indexes()` (up-front build) must not move a single byte.

    Two engines over identically-generated studies render the headline
    figure/table artefacts; one builds every index up front, the other
    builds lazily on first use. The rendered text must match exactly.
    """
    config = StudyConfig(n_users=6, duration_days=14.0, seed=21)

    def render(study):
        return "\n\n".join(
            [
                report.render_fig1(top10_appearance_counts(study.dataset)),
                report.render_fig2(
                    top_consumers(study, by="energy"),
                    top_consumers(study, by="data"),
                ),
                report.render_table1(case_study_table(study)),
                "\n".join(
                    f"{state.name}: {share:.6f}"
                    for state, share in state_energy_share(study).items()
                ),
            ]
        )

    lazy = StudyEnergy(generate_study(config))
    prepared = StudyEnergy(generate_study(config))
    prepared.prepare_indexes()
    assert all(
        trace.index().is_grouped for trace in prepared.dataset
    ), "prepare_indexes left an index unbuilt"
    assert render(prepared) == render(lazy)
