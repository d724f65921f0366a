"""repro.follow: rings, tails, headlines, resume identity, live publish.

The subsystem's core invariant gets the property treatment the issue
demands: for random event streams, random chunkings and random window
shapes, a long-lived :class:`WindowRing` — through evictions and
checkpoint payload round-trips — folds ``array_equal`` to a fresh ring
built from only the window's packets. On top of that: tailing-source
edge cases (torn lines, truncation, cursor resume), headline engine
determinism, and the acceptance scenario — interrupt a follower
mid-drain, resume, and get byte-identical headlines, folds and live
manifests.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro import StudyConfig, generate_study
from repro.cli import main
from repro.core.readout import TotalsReadout, UserTotalsView
from repro.errors import (
    FollowError,
    NeedsPacketDetail,
    SourceTruncated,
    StreamError,
    TraceError,
)
from repro.exitcodes import (
    EXIT_FOLLOW_INTERRUPTED,
    EXIT_OK,
    EXIT_SOURCE_TRUNCATED,
    EXIT_USAGE,
)
from repro.follow import (
    DEFAULT_WINDOWS,
    FOLLOW_WINDOW_END,
    Follower,
    HeadlineEngine,
    NpzDropSource,
    TailCsvSource,
    WindowRing,
    WindowSpec,
    live_manifest_path,
    parse_window_spec,
)
from repro.radio import LTE_DEFAULT, StreamingAttribution, TailPolicy
from repro.store import ResultStore, StoreKey, render_analysis
from repro.trace.arrays import PacketArray
from repro.trace.io_text import write_events_csv, write_packets_csv

# ----------------------------------------------------------------------
# Window specs
# ----------------------------------------------------------------------
def test_window_spec_buckets():
    spec = WindowSpec("hour", 3600, 300)
    assert spec.n_buckets == 12


@pytest.mark.parametrize(
    "name,span,bucket",
    [
        ("", 60, 10),  # empty name
        ("bad name", 60, 10),  # non-alphanumeric
        ("w", 0, 10),  # zero span
        ("w", 60, 0),  # zero bucket
        ("w", 60, -5),  # negative bucket
        ("w", 65, 10),  # span not a multiple
    ],
)
def test_window_spec_rejects_bad_shapes(name, span, bucket):
    with pytest.raises(FollowError):
        WindowSpec(name, span, bucket)


def test_parse_window_spec_roundtrip():
    spec = parse_window_spec("m5=300:60")
    assert spec == WindowSpec("m5", 300, 60)


@pytest.mark.parametrize(
    "text", ["hour", "hour=3600", "hour=a:b", "=300:60", "hour=300:"]
)
def test_parse_window_spec_rejects_malformed(text):
    with pytest.raises(FollowError):
        parse_window_spec(text)


def test_default_windows_are_valid_and_distinct():
    names = [w.name for w in DEFAULT_WINDOWS]
    assert names == ["hour", "day", "week"]
    assert len(set(names)) == len(names)


# ----------------------------------------------------------------------
# Settled timestamps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_settled_timestamps_cover_stream_for_any_chunking(seed):
    """The engine's settled timestamps, concatenated over every feed and
    ``finish``, are the stream's timestamps, however it was chunked;
    each feed holds back only its chunk's last (pending) packet."""
    rng = np.random.default_rng(40 + seed)
    n = 257
    packets = PacketArray.from_columns(
        np.sort(rng.uniform(0.0, 1000.0, n)),
        rng.integers(40, 1500, n).astype(np.uint32),
        rng.integers(0, 2, n).astype(np.uint8),
        rng.integers(1, 6, n).astype(np.uint16),
    )
    sim = StreamingAttribution(
        LTE_DEFAULT, TailPolicy.SPLIT_ADJACENT, (0.0, 1000.0)
    )
    pieces = []
    pos = 0
    while pos < n:
        k = int(rng.integers(0, 40))
        settled = sim.feed(packets[pos : pos + k])
        assert len(settled.timestamps) == len(settled)
        assert settled.apps.dtype == packets.apps.dtype
        pieces.append(settled.timestamps)
        pos = min(pos + k, n)
        if pos:
            assert len(np.concatenate(pieces)) == pos - 1
    final, _ = sim.finish()
    pieces.append(final.timestamps)
    assert np.array_equal(np.concatenate(pieces), packets.timestamps)


# ----------------------------------------------------------------------
# The ring property: long-lived fold == fresh recompute, bit for bit
# ----------------------------------------------------------------------
def _random_packets(rng, n, t_max):
    return (
        np.sort(rng.uniform(0.0, t_max, n)),
        rng.integers(1, 6, n).astype(np.int64),
        rng.integers(0, 4, n).astype(np.int64),
        rng.integers(40, 1500, n).astype(np.int64),
        rng.uniform(0.0, 2.0, n),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_ring_fold_bit_identical_to_fresh_recompute(seed):
    """Random streams, random chunk sizes, random window shapes: the
    evicted, payload-round-tripped ring folds exactly like a fresh ring
    fed only the window's packets."""
    rng = np.random.default_rng(700 + seed)
    bucket = int(rng.integers(3, 9))
    n_buckets = int(rng.integers(2, 6))
    spec = WindowSpec("w", bucket * n_buckets, bucket)
    users = [1, 2]
    n = int(rng.integers(200, 400))
    t_max = float(bucket * n_buckets * int(rng.integers(4, 9)))
    packets = {uid: _random_packets(rng, n, t_max) for uid in users}

    ring = WindowRing(spec)
    pos = {uid: 0 for uid in users}
    while any(pos[uid] < n for uid in users):
        uid = int(rng.choice(users))
        if pos[uid] >= n:
            continue
        lo = pos[uid]
        hi = min(lo + int(rng.integers(1, 60)), n)
        ts, apps, states, sizes, energy = (
            column[lo:hi] for column in packets[uid]
        )
        ring.ingest(uid, ts, apps, states, sizes, energy)
        pos[uid] = hi
        # Evict exactly as the follower would: keep the current and
        # previous window behind the stream low-watermark.
        watermark = min(
            packets[u][0][pos[u] - 1] if pos[u] else 0.0 for u in users
        )
        sealed = int(watermark // bucket) - 1
        ring.evict_through(sealed - 2 * n_buckets)
        if rng.random() < 0.25:
            meta, arrays = ring.payload("w0")
            ring = WindowRing.from_payload(meta, arrays, "w0")

    high = int(min(p[0][-1] for p in packets.values()) // bucket) - 1
    lo_t = (high - n_buckets + 1) * bucket
    hi_t = (high + 1) * bucket
    fresh = WindowRing(spec)
    for uid, (ts, apps, states, sizes, energy) in packets.items():
        mask = (ts >= lo_t) & (ts < hi_t)
        fresh.ingest(
            uid, ts[mask], apps[mask], states[mask], sizes[mask],
            energy[mask],
        )

    lived, scratch = ring.fold(high), fresh.fold(high)
    assert list(lived) == list(scratch)
    for uid in lived:
        for got, want in zip(lived[uid], scratch[uid]):
            assert list(got) == list(want)
            assert np.array_equal(
                np.array(list(got.values())),
                np.array(list(want.values())),
            )
    assert ring.fold_digest(high) == fresh.fold_digest(high)
    assert ring.evictions > 0  # the property exercised eviction


@pytest.mark.parametrize(
    "tag, keys, defect",
    [
        ("e", [-2], "outside"),
        ("s", [65536 * 256], "outside"),
        ("y", [7, 7], "strictly increasing"),
    ],
)
def test_ring_payload_with_bad_keys_is_refused(tag, keys, defect):
    """A window ring's saved key arrays pass the checkpoint's key
    checks, or the ring refuses them with a FollowError naming the
    array."""
    ring = WindowRing(WindowSpec("w", 40, 10))
    ring.ingest(
        1,
        np.array([1.0, 2.0]),
        np.array([3, 4]),
        np.array([0, 1]),
        np.array([100, 200]),
        np.array([0.5, 0.25]),
    )
    meta, arrays = ring.payload("w0")
    stem = "w0_b0_u1"
    arrays[f"{stem}_{tag}k"] = np.array(keys, dtype=np.int64)
    arrays[f"{stem}_{tag}v"] = np.zeros(
        len(keys), np.int64 if tag == "y" else np.float64
    )
    with pytest.raises(FollowError, match=f"{stem}_{tag}k: .*{defect}"):
        WindowRing.from_payload(meta, arrays, "w0")


def test_fold_digest_moves_with_the_fold():
    spec = WindowSpec("w", 40, 10)
    ring = WindowRing(spec)
    one = np.array([1.0])
    ring.ingest(1, np.array([15.0]), one.astype(np.int64), one.astype(np.int64), one.astype(np.int64), one)
    before = ring.fold_digest(3)
    ring.ingest(1, np.array([25.0]), one.astype(np.int64), one.astype(np.int64), one.astype(np.int64), one)
    assert ring.fold_digest(3) != before
    # A packet outside the window leaves the digest alone.
    ring.ingest(1, np.array([500.0]), one.astype(np.int64), one.astype(np.int64), one.astype(np.int64), one)
    after = ring.fold_digest(3)
    ring.ingest(1, np.array([501.0]), one.astype(np.int64), one.astype(np.int64), one.astype(np.int64), one)
    assert ring.fold_digest(3) == after


def test_windowed_readout_refuses_packet_detail(dataset):
    """Table 1 needs the cadence tier, which a live window cannot
    carry — the refusal is the typed error, not a registry crash."""
    spec = WindowSpec("w", 40, 10)
    ring = WindowRing(spec)
    one = np.array([1.0])
    ring.ingest(1, np.array([15.0]), one.astype(np.int64), one.astype(np.int64), one.astype(np.int64), one)
    readout = ring.readout(3, registry=dataset.registry)
    assert readout.window_name == "w"
    assert readout.window_end - readout.window_start == spec.span_s
    with pytest.raises(NeedsPacketDetail):
        render_analysis("table1", readout)


# ----------------------------------------------------------------------
# Headline engine
# ----------------------------------------------------------------------
def _window_for(energies_by_app):
    """A single-user window readout with the given per-app energies
    (an empty dict gives a window with no users)."""
    apps = {int(a): float(e) for a, e in energies_by_app.items()}
    if not apps:
        return TotalsReadout([])
    app_state = {a * 256: e for a, e in apps.items()}
    sizes = {a * 256: 1 for a in apps}
    return TotalsReadout([UserTotalsView(1, apps, app_state, sizes, 0.0)])


def test_headline_engine_first_then_entry_then_surge():
    engine = HeadlineEngine("w", top_n=2)
    first = engine.evaluate(10, _window_for({1: 5.0, 2: 3.0, 3: 1.0}), _window_for({}))
    assert first[0].startswith("[w #10] total 9.000 J (no previous window)")
    assert any("is #1 of the top-2" in line for line in first)
    # Same ranking again: only the total line.
    second = engine.evaluate(11, _window_for({1: 5.0, 2: 3.0}), _window_for({1: 5.0, 2: 3.0, 3: 1.0}))
    assert len(second) == 1 and "% vs previous window" in second[0]
    # App 3 displaces app 2 and surges 4x.
    third = engine.evaluate(12, _window_for({1: 5.0, 3: 4.0}), _window_for({1: 5.0, 2: 3.0, 3: 1.0}))
    assert any("app3 entered the top-2" in line for line in third)
    assert any("surged 4.0x" in line for line in third)


def test_headline_engine_state_roundtrip_is_transparent():
    feeds = [
        (10, _window_for({1: 5.0, 2: 3.0}), _window_for({})),
        (11, _window_for({2: 9.0, 1: 1.0}), _window_for({1: 5.0, 2: 3.0})),
        (12, _window_for({3: 2.0}), _window_for({2: 9.0, 1: 1.0})),
    ]
    straight = HeadlineEngine("w", top_n=2)
    resumed = HeadlineEngine("w", top_n=2)
    expected, got = [], []
    for i, (bucket, fold, prior) in enumerate(feeds):
        expected.extend(straight.evaluate(bucket, fold, prior))
        if i == 1:
            resumed = HeadlineEngine.from_state("w", resumed.state(), top_n=2)
        got.extend(resumed.evaluate(bucket, fold, prior))
    assert got == expected


# ----------------------------------------------------------------------
# Tailing sources
# ----------------------------------------------------------------------
STUDY = StudyConfig(n_users=2, duration_days=2.0, seed=29)


@pytest.fixture(scope="module")
def dataset():
    return generate_study(STUDY)


@pytest.fixture()
def csv_tail(tmp_path, dataset):
    """Per-user packets/events CSVs written in full, plus their text."""
    pairs, texts = [], {}
    for user in dataset.users:
        packets = tmp_path / f"u{user.user_id}.csv"
        events = tmp_path / f"u{user.user_id}_events.csv"
        write_packets_csv(packets, user.packets, dataset.registry)
        write_events_csv(events, user.events, dataset.registry)
        pairs.append((packets, events))
        texts[user.user_id] = packets.read_text()
    return pairs, texts


def test_tail_csv_reads_everything_in_chunks(csv_tail, dataset):
    pairs, _ = csv_tail
    source = TailCsvSource(pairs, chunk_size=512)
    assert source.window(1) == (0.0, FOLLOW_WINDOW_END)
    total = 0
    for user in dataset.users:
        # A poll reads at most TAIL_READ_LIMIT bytes; drain in rounds.
        while True:
            polled = source.poll(user.user_id)
            if not polled:
                break
            assert all(len(chunk) <= 512 for chunk, _ in polled)
            total += sum(len(chunk) for chunk, _ in polled)
        assert source.poll(user.user_id) == []
    assert total == dataset.total_packets


def test_tail_csv_holds_back_torn_lines(tmp_path, csv_tail):
    _, texts = csv_tail
    lines = texts[1].splitlines(keepends=True)
    packets = tmp_path / "torn.csv"
    # Header + one complete row + a torn row (no trailing newline).
    packets.write_text(lines[0] + lines[1] + lines[2][:-10])
    source = TailCsvSource([(packets, None)])
    polled = source.poll(1)
    assert sum(len(chunk) for chunk, _ in polled) == 1
    # Completing the torn line releases exactly that row.
    with open(packets, "a") as handle:
        handle.write(lines[2][-10:])
    polled = source.poll(1)
    assert sum(len(chunk) for chunk, _ in polled) == 1


def test_tail_csv_waits_for_a_complete_header(tmp_path, csv_tail):
    _, texts = csv_tail
    lines = texts[1].splitlines(keepends=True)
    packets = tmp_path / "young.csv"
    packets.write_text(lines[0][:-1])  # header without its newline
    source = TailCsvSource([(packets, None)])
    assert source.poll(1) == []
    packets.write_text(lines[0] + lines[1])
    assert sum(len(c) for c, _ in source.poll(1)) == 1


def test_tail_csv_rejects_wrong_header(tmp_path):
    packets = tmp_path / "bad.csv"
    packets.write_text("time,bytes,who\n1,2,3\n")
    source = TailCsvSource([(packets, None)])
    with pytest.raises(FollowError):
        source.poll(1)


def test_tail_csv_shrink_raises_source_truncated(tmp_path, csv_tail):
    _, texts = csv_tail
    packets = tmp_path / "shrink.csv"
    packets.write_text(texts[1])
    source = TailCsvSource([(packets, None)], chunk_size=256)
    source.poll(1)
    packets.write_text("".join(texts[1].splitlines(keepends=True)[:3]))
    with pytest.raises(SourceTruncated):
        source.poll(1)


def test_tail_csv_rejects_unsorted_rows(tmp_path, csv_tail):
    _, texts = csv_tail
    lines = texts[1].splitlines(keepends=True)
    packets = tmp_path / "unsorted.csv"
    packets.write_text(lines[0] + lines[2] + lines[1])
    source = TailCsvSource([(packets, None)])
    with pytest.raises(StreamError):
        source.poll(1)


@pytest.mark.parametrize("row", [1, 2])
def test_tail_csv_undecodable_row_is_a_stream_error(tmp_path, csv_tail, row):
    """A byte that is not valid UTF-8 fails its row like any other
    malformed tailed row: a StreamError, not a UnicodeDecodeError."""
    _, texts = csv_tail
    lines = [line.encode() for line in texts[1].splitlines(keepends=True)]
    lines[row] = lines[row].replace(b",", b"\xff,", 1)
    packets = tmp_path / "bad-byte.csv"
    packets.write_bytes(b"".join(lines[:4]))
    source = TailCsvSource([(packets, None)], chunk_size=1)
    with pytest.raises(StreamError, match="row is not valid UTF-8"):
        source.poll(1)


def test_tail_csv_non_finite_time_is_a_stream_error(tmp_path, csv_tail):
    """A tailed row timed ``inf`` is malformed, not a packet that turns
    every later total into ``nan``."""
    _, texts = csv_tail
    lines = texts[1].splitlines(keepends=True)
    lines[2] = "inf" + lines[2][lines[2].index(","):]
    packets = tmp_path / "inf-time.csv"
    packets.write_text("".join(lines[:4]))
    source = TailCsvSource([(packets, None)], chunk_size=1)
    with pytest.raises(StreamError, match="non-finite timestamp inf"):
        source.poll(1)


def test_tail_csv_undecodable_header_is_a_follow_error(tmp_path, csv_tail):
    _, texts = csv_tail
    packets = tmp_path / "bad-header.csv"
    packets.write_bytes(texts[1].encode().replace(b"\n", b"\xff\n", 1))
    with pytest.raises(FollowError, match="header is not valid UTF-8"):
        TailCsvSource([(packets, None)]).poll(1)


def test_tail_csv_undecodable_events_row_is_a_trace_error(tmp_path, csv_tail):
    pairs, texts = csv_tail
    events = tmp_path / "bad-events.csv"
    events.write_bytes(b"timestamp,kind,app,value\n1.0,screen,,o\xff\n")
    source = TailCsvSource([(pairs[0][0], events)])
    with pytest.raises(TraceError, match=r"bad-events\.csv:2: row is not"):
        source.poll(1)


def _drain_polls(source, uid):
    out = []
    while True:
        polled = source.poll(uid)
        if not polled:
            return out
        out.extend(polled)


def test_tail_csv_bounded_poll_and_cursor_resume(tmp_path, csv_tail, dataset):
    """max_chunks bounds one poll; a fresh source restored from the
    durable snapshot yields exactly the unconsumed remainder."""
    pairs, _ = csv_tail
    source = TailCsvSource(pairs, chunk_size=128)
    first = source.poll(1, max_chunks=2)
    assert len(first) == 2
    consumed = sum(len(chunk) for chunk, _ in first)
    snapshot = first[-1][1]

    resumed = TailCsvSource(pairs, chunk_size=128)
    resumed.restore({"1": snapshot}, source.registry.to_json())
    rest = _drain_polls(resumed, 1)
    n_user1 = len(dataset.users[0].packets)
    assert consumed + sum(len(chunk) for chunk, _ in rest) == n_user1
    # The resumed stream continues with identical rows.
    fresh = TailCsvSource(pairs, chunk_size=128)
    everything = _drain_polls(fresh, 1)
    tail_ts = np.concatenate([c.timestamps for c, _ in rest])
    full_ts = np.concatenate([c.timestamps for c, _ in everything])
    assert np.array_equal(tail_ts, full_ts[consumed:])


@pytest.fixture()
def drop_dir(tmp_path, dataset):
    drops = tmp_path / "drops"
    drops.mkdir()
    dataset.save(drops / "day1.npz")
    dataset.save(drops / "day2.npz")
    return drops


def test_npz_drops_consume_in_name_order(drop_dir, dataset):
    source = NpzDropSource(drop_dir, chunk_size=1024)
    assert source.user_ids == [1, 2]
    rows = 0
    # One drop completes per poll; two polls drain a user.
    for _ in range(2):
        for uid in source.user_ids:
            rows += sum(len(c) for c, _ in source.poll(uid))
    assert rows == 2 * dataset.total_packets
    assert source.poll(1) == []
    assert source.cursor_snapshot(1)["done"] == ["day1.npz", "day2.npz"]


def test_npz_drops_detect_vanished_drop(drop_dir):
    source = NpzDropSource(drop_dir)
    source.poll(1)
    (drop_dir / "day1.npz").unlink()
    with pytest.raises(SourceTruncated):
        source.poll(1)


def test_npz_drops_resume_from_mid_drop_cursor(drop_dir, dataset):
    source = NpzDropSource(drop_dir, chunk_size=256)
    first = source.poll(1, max_chunks=2)
    snapshot = first[-1][1]
    consumed = sum(len(c) for c, _ in first)

    resumed = NpzDropSource(drop_dir, chunk_size=256)
    resumed.restore({"1": snapshot}, source.registry.to_json())
    rest = _drain_polls(resumed, 1)
    n_user1 = len(dataset.users[0].packets)
    assert consumed + sum(len(c) for c, _ in rest) == 2 * n_user1


def test_npz_drops_reject_divergent_user_set(drop_dir):
    bigger = generate_study(StudyConfig(n_users=3, duration_days=1.0, seed=29))
    bigger.save(drop_dir / "day3.npz")
    source = NpzDropSource(drop_dir)
    source.poll(1)  # day1 is fine
    source.poll(1)  # day2 is fine
    with pytest.raises(FollowError):
        source.poll(1)  # day3 carries a third user


# ----------------------------------------------------------------------
# The follower end to end
# ----------------------------------------------------------------------
WINDOWS = (WindowSpec("short", 14400, 3600), WindowSpec("long", 43200, 14400))


def _run_follower(pairs, checkpoint, store=None, **kwargs):
    lines = []
    follower = Follower(
        TailCsvSource(pairs, chunk_size=512),
        checkpoint_path=checkpoint,
        windows=WINDOWS,
        store=store,
        poll_interval=0.0,
        emit=lines.append,
        **kwargs,
    )
    why = follower.run(idle_exit=2)
    return follower, lines, why


def test_follower_emits_headlines_and_checkpoints(tmp_path, csv_tail):
    pairs, _ = csv_tail
    checkpoint = tmp_path / "follow.npz"
    follower, lines, why = _run_follower(pairs, checkpoint)
    assert why == "idle"
    assert checkpoint.exists()
    assert lines and lines == follower.headline_log
    assert any("total" in line for line in lines)
    assert follower.metrics.counter("follow.chunks") > 0
    assert follower.metrics.counter("follow.checkpoints") > 0
    # Both windows evaluated up to the stream's sealed buckets.
    t_seal = follower.seal_time()
    for ring in follower.rings.values():
        assert ring.last_evaluated == int(t_seal // ring.spec.bucket_s) - 1


def test_follow_checkpoint_window_arrays_keep_their_names(tmp_path, csv_tail):
    """A follow checkpoint saves each (window, bucket, user) cell of
    the rings as the six ``x_<prefix>_b<bucket>_u<user>_{e,s,y}{k,v}``
    arrays of the dtypes it always has, and nothing else under ``x_``,
    so follow checkpoints written by earlier versions still resume."""
    pairs, _ = csv_tail
    checkpoint = tmp_path / "follow.npz"
    _run_follower(pairs, checkpoint)
    with np.load(checkpoint) as archive:
        saved = {
            name: archive[name].dtype.name
            for name in archive.files
            if name.startswith("x_")
        }
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
    want = {}
    for meta in json.loads(header["extra"])["windows"].values():
        for bucket, users in meta["buckets"].items():
            for uid in users:
                stem = f"x_{meta['prefix']}_b{bucket}_u{uid}"
                for tag, dtype in (("e", "float64"), ("s", "float64"),
                                   ("y", "int64")):
                    want[f"{stem}_{tag}k"] = "int64"
                    want[f"{stem}_{tag}v"] = dtype
    assert want
    assert saved == want


def test_follower_backpressure_bounds_the_queue(tmp_path, csv_tail):
    pairs, _ = csv_tail
    follower = Follower(
        TailCsvSource(pairs, chunk_size=128),
        checkpoint_path=tmp_path / "bp.npz",
        windows=WINDOWS,
        max_pending=3,
        poll_interval=0.0,
    )
    follower.run(idle_exit=2)
    assert follower.metrics.gauge_max("follow.lag_chunks") <= 3
    assert follower.metrics.gauge_last("follow.lag_chunks") == 0  # drained


def test_follower_interrupt_resume_is_bit_identical(tmp_path, csv_tail):
    """The acceptance scenario: stop mid-drain after the 3rd chunk,
    resume from the checkpoint, and match an uninterrupted run's
    headlines, window folds and live manifest exactly."""
    pairs, _ = csv_tail

    ref_store = ResultStore(tmp_path / "ref_store")
    reference, ref_lines, why = _run_follower(
        pairs, tmp_path / "ref.npz", store=ref_store
    )
    assert why == "idle"

    store = ResultStore(tmp_path / "store")
    lines_a = []
    follower = Follower(
        TailCsvSource(pairs, chunk_size=512),
        checkpoint_path=tmp_path / "live.npz",
        windows=WINDOWS,
        store=store,
        poll_interval=0.0,
        emit=lines_a.append,
    )
    unwrapped = follower._process_chunk
    seen = []

    def interrupt_after_three(uid, chunk, snapshot):
        unwrapped(uid, chunk, snapshot)
        seen.append(uid)
        if len(seen) == 3:
            follower.request_stop()

    follower._process_chunk = interrupt_after_three
    assert follower.run(idle_exit=2) == "interrupted"
    assert follower.chunks_done == 3  # genuinely stopped mid-drain

    lines_b = []
    resumed = Follower(
        TailCsvSource(pairs, chunk_size=512),
        checkpoint_path=tmp_path / "live.npz",
        windows=WINDOWS,
        store=store,
        poll_interval=0.0,
        emit=lines_b.append,
    )
    assert resumed.run(resume=True, idle_exit=2) == "idle"

    assert lines_a + lines_b == ref_lines
    assert resumed.headline_log == reference.headline_log
    for name, ring in resumed.rings.items():
        ref_ring = reference.rings[name]
        assert ring.last_evaluated == ref_ring.last_evaluated
        assert ring.fold_digest(ring.last_evaluated) == ref_ring.fold_digest(
            ref_ring.last_evaluated
        )
    live = json.loads(live_manifest_path(store.directory).read_text())
    ref_live = json.loads(
        live_manifest_path(ref_store.directory).read_text()
    )
    assert live == ref_live


def test_follower_rejects_mismatched_resume_windows(tmp_path, csv_tail):
    pairs, _ = csv_tail
    checkpoint = tmp_path / "w.npz"
    _run_follower(pairs, checkpoint)
    other = Follower(
        TailCsvSource(pairs, chunk_size=512),
        checkpoint_path=checkpoint,
        windows=(WindowSpec("short", 7200, 3600),),
        poll_interval=0.0,
    )
    with pytest.raises(FollowError):
        other.run(resume=True, idle_exit=1)


def test_follower_publishes_live_analyses(tmp_path, csv_tail, dataset):
    pairs, _ = csv_tail
    store = ResultStore(tmp_path / "store")
    follower, _, _ = _run_follower(pairs, tmp_path / "p.npz", store=store)

    manifest = json.loads(live_manifest_path(store.directory).read_text())
    assert manifest["format"] == 1
    assert sorted(manifest["windows"]) == ["long", "short"]
    assert manifest["analyses"] == ["fig1", "fig2", "fig3", "headlines", "readout"]
    for name, entry in manifest["windows"].items():
        assert "digest" not in entry  # internal key stays internal
        spec = follower.rings[name].spec
        assert entry["span_s"] == spec.span_s
        assert entry["window_end"] - entry["window_start"] == spec.span_s
        for analysis in manifest["analyses"]:
            key = StoreKey(
                entry["fingerprint"],
                manifest["model"],
                manifest["policy"],
                analysis,
            )
            result = store.get(key)
            assert result is not None and result.data


def test_follower_republish_skips_unchanged_folds(tmp_path, csv_tail):
    pairs, _ = csv_tail
    store = ResultStore(tmp_path / "store")
    checkpoint = tmp_path / "c.npz"
    follower, _, _ = _run_follower(pairs, checkpoint, store=store)
    published = follower.metrics.counter("follow.published")
    manifest_before = live_manifest_path(store.directory).read_text()

    again = Follower(
        TailCsvSource(pairs, chunk_size=512),
        checkpoint_path=checkpoint,
        windows=WINDOWS,
        store=store,
        poll_interval=0.0,
    )
    assert again.run(resume=True, idle_exit=2) == "idle"
    # No new data, no new folds: nothing re-published, manifest stable.
    assert again.metrics.counter("follow.published") == 0
    assert live_manifest_path(store.directory).read_text() == manifest_before
    assert published > 0


def test_follower_supersede_invalidates_old_generation(tmp_path, csv_tail):
    """When new data moves a window's fold, the old fingerprint's
    entries leave the store — one live generation per window."""
    pairs, texts = csv_tail
    staged = []
    for i, (packets, events) in enumerate(pairs, start=1):
        part = tmp_path / f"part{i}.csv"
        lines = texts[i].splitlines(keepends=True)
        part.write_text("".join(lines[: len(lines) // 2]))
        staged.append((part, events))

    store = ResultStore(tmp_path / "store")
    checkpoint = tmp_path / "s.npz"
    follower, _, _ = _run_follower(staged, checkpoint, store=store)
    manifest = json.loads(live_manifest_path(store.directory).read_text())
    old_keys = {
        name: entry["fingerprint"]
        for name, entry in manifest["windows"].items()
    }

    for i, (part, _) in enumerate(staged, start=1):
        lines = texts[i].splitlines(keepends=True)
        with open(part, "a") as handle:
            handle.write("".join(lines[len(lines) // 2 :]))
    again = Follower(
        TailCsvSource(staged, chunk_size=512),
        checkpoint_path=checkpoint,
        windows=WINDOWS,
        store=store,
        poll_interval=0.0,
    )
    assert again.run(resume=True, idle_exit=2) == "idle"
    new = json.loads(live_manifest_path(store.directory).read_text())
    fingerprints = {e.fingerprint for e in store.entries()}
    for name, entry in new["windows"].items():
        if entry["fingerprint"] != old_keys[name]:
            assert old_keys[name] not in fingerprints


def test_follower_validates_configuration(tmp_path, csv_tail):
    pairs, _ = csv_tail
    source = TailCsvSource(pairs)
    with pytest.raises(FollowError):
        Follower(source, checkpoint_path=tmp_path / "x.npz", windows=())
    with pytest.raises(FollowError):
        Follower(
            source,
            checkpoint_path=tmp_path / "x.npz",
            windows=(WindowSpec("a", 60, 10), WindowSpec("a", 120, 10)),
        )
    with pytest.raises(FollowError):
        Follower(
            source, checkpoint_path=tmp_path / "x.npz", checkpoint_every=0
        )
    with pytest.raises(FollowError):
        Follower(source, checkpoint_path=tmp_path / "x.npz", max_pending=0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_follow_runs_and_summarises(tmp_path, csv_tail, capsys):
    pairs, _ = csv_tail
    code = main(
        [
            "follow",
            "--user", f"{pairs[0][0]}:{pairs[0][1]}",
            "--user", f"{pairs[1][0]}:{pairs[1][1]}",
            "--checkpoint", str(tmp_path / "cli.npz"),
            "--window", "short=14400:3600",
            "--chunk-size", "512",
            "--poll-interval", "0",
            "--idle-exit", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "follow idle:" in out
    assert "continue with --resume" in out
    assert "[short #" in out


def test_cli_follow_truncated_source_exits_7(tmp_path, csv_tail, capsys):
    _, texts = csv_tail
    packets = tmp_path / "t.csv"
    packets.write_text(texts[1])
    argv = [
        "follow",
        "--user", str(packets),
        "--checkpoint", str(tmp_path / "t.npz"),
        "--window", "short=14400:3600",
        "--poll-interval", "0",
        "--idle-exit", "1",
    ]
    assert main(argv) == EXIT_OK
    packets.write_text("".join(texts[1].splitlines(keepends=True)[:3]))
    code = main(argv + ["--resume"])
    err = capsys.readouterr().err
    assert code == EXIT_SOURCE_TRUNCATED
    assert "truncated or replaced" in err


def test_cli_follow_usage_errors(tmp_path, capsys):
    # --user and --drops are mutually exclusive and one is required.
    assert main(["follow", "--checkpoint", str(tmp_path / "x.npz")]) == EXIT_USAGE
    drops = tmp_path / "drops"
    drops.mkdir()
    assert (
        main(
            [
                "follow",
                "--user", "a.csv",
                "--drops", str(drops),
                "--checkpoint", str(tmp_path / "x.npz"),
            ]
        )
        == EXIT_USAGE
    )
    capsys.readouterr()


def test_cli_serve_live_requires_store(capsys):
    assert main(["serve", "--live", "--port", "0"]) == EXIT_USAGE
    assert "--store" in capsys.readouterr().err
