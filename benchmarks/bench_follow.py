"""The live-monitoring ring: ingest throughput, fold cost, identity.

docs/MONITORING.md promises that a long-lived :class:`WindowRing` —
through any chunking and eviction history — folds its window to
bit-identical totals against a fresh ring built from only that
window's packets, and that maintaining the ring is cheap enough to
ride along with attribution. This bench measures both sides and
enforces the identity:

* ingest = feed a week of 4-user traffic through the ring in
  follower-sized chunks, evicting as buckets fall out of retention
  (what `repro follow` pays on top of streaming attribution);
* fold = the per-advance cost of folding the last-day window through
  `merge_keyed_totals` (what every sealed bucket pays);
* identity = the folded window must be `array_equal` to a fresh ring
  fed only the window's packets, digest included.

Numbers land in ``benchmarks/output/BENCH_follow.json`` so the perf
trajectory is recorded run over run.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.follow import WindowRing, WindowSpec

from conftest import write_artifact

#: Synthetic tail scale: a week of packets for a handful of users.
N_USERS = 4
N_PACKETS = 200_000
SPAN_DAYS = 7.0

#: The maintained window: last day, hourly buckets.
WINDOW = WindowSpec("day", 86400, 3600)

#: Follower-sized ingest chunks.
CHUNK = 4096

#: App/state vocabulary for the synthetic traffic.
N_APPS = 40
N_STATES = 3


def _user_stream(rng, n):
    """One user's sorted week of (ts, apps, states, sizes, energies)."""
    ts = np.sort(rng.uniform(0.0, SPAN_DAYS * 86400.0, n))
    apps = rng.integers(0, N_APPS, n, dtype=np.int64)
    states = rng.integers(0, N_STATES, n, dtype=np.int64)
    sizes = rng.integers(40, 1500, n, dtype=np.int64)
    energies = rng.uniform(1e-4, 0.4, n)
    return ts, apps, states, sizes, energies


def _ingest_chunked(ring, streams, evict=True):
    """Feed every stream through ``ring`` in follower-sized chunks,
    evicting past retention like the follower does. Returns the final
    sealed bucket and the eviction count."""
    evictions = 0
    high = 0
    for uid, (ts, apps, states, sizes, energies) in streams.items():
        for lo in range(0, len(ts), CHUNK):
            hi = lo + CHUNK
            ring.ingest(
                uid, ts[lo:hi], apps[lo:hi], states[lo:hi],
                sizes[lo:hi], energies[lo:hi],
            )
            if evict:
                sealed = int(ts[min(hi, len(ts)) - 1] // WINDOW.bucket_s) - 1
                high = max(high, sealed)
                evictions += ring.evict_through(
                    sealed - 2 * WINDOW.n_buckets
                )
    return high, evictions


def test_follow_ring(benchmark, output_dir):
    rng = np.random.default_rng(7)
    per_user = N_PACKETS // N_USERS
    streams = {uid: _user_stream(rng, per_user) for uid in range(N_USERS)}

    ring = WindowRing(WINDOW)
    t0 = time.perf_counter()
    high, evictions = _ingest_chunked(ring, streams)
    ingest_s = time.perf_counter() - t0
    assert evictions > 0, "a week of traffic must overflow retention"

    # The last fully-sealed bucket common to every user.
    high = min(
        int(ts[-1] // WINDOW.bucket_s) - 1
        for ts, *_ in streams.values()
    )

    # Identity: a fresh ring fed only the window's packets folds the
    # same bytes — keys, values and digest.
    low_t = (high - WINDOW.n_buckets + 1) * WINDOW.bucket_s
    high_t = (high + 1) * WINDOW.bucket_s
    fresh = WindowRing(WINDOW)
    for uid, (ts, apps, states, sizes, energies) in streams.items():
        mask = (ts >= low_t) & (ts < high_t)
        fresh.ingest(
            uid, ts[mask], apps[mask], states[mask],
            sizes[mask], energies[mask],
        )
    lived, scratch = ring.fold(high), fresh.fold(high)
    assert list(lived) == list(scratch)
    for uid in lived:
        for mine, theirs in zip(lived[uid], scratch[uid]):
            assert list(mine) == list(theirs)
            assert np.array_equal(
                np.fromiter(mine.values(), float),
                np.fromiter(theirs.values(), float),
            )
    assert ring.fold_digest(high) == fresh.fold_digest(high)

    # Steady-state fold cost: what every sealed bucket pays.
    benchmark.pedantic(lambda: ring.fold(high), rounds=20, iterations=5)
    fold_s = benchmark.stats.stats.mean
    total_j = ring.readout(high).attributed_energy

    packets_per_s = N_PACKETS / ingest_s
    numbers = {
        "packets": N_PACKETS,
        "users": N_USERS,
        "window": {"span_s": WINDOW.span_s, "bucket_s": WINDOW.bucket_s},
        "chunk": CHUNK,
        "ingest_wall_s": round(ingest_s, 4),
        "ingest_packets_per_s": round(packets_per_s),
        "fold_mean_s": round(fold_s, 6),
        "evictions": evictions,
        "window_total_j": round(total_j, 3),
        "identical_to_fresh": True,
    }
    (output_dir / "BENCH_follow.json").write_text(
        json.dumps(numbers, indent=2) + "\n"
    )

    lines = [
        "rolling-window ring — "
        f"{N_PACKETS:,} packets, {N_USERS} users, "
        f"{WINDOW.span_s // 3600}h window / {WINDOW.bucket_s // 60}min buckets",
        f"  ring ingest   {packets_per_s:10.0f} packets/s "
        f"({ingest_s:.3f} s wall, {evictions} bucket evictions)",
        f"  window fold   {fold_s * 1e3:10.3f} ms/advance "
        f"({total_j:.1f} J in window)",
        "  fold bit-identical to a from-scratch ring (array_equal + digest)",
        "  [numbers also in BENCH_follow.json]",
    ]
    write_artifact(output_dir, "bench_follow.txt", "\n".join(lines))
    benchmark.extra_info.update(numbers)
