"""repro.stream: bit-identity with batch, chunk edges, checkpoint/resume.

The subsystem's contract is the repo's established standard: every
streamed total must equal the batch :class:`StudyEnergy` value
bit-for-bit (``array_equal``, never ``allclose``), for any chunk size
and across a kill + resume. The edge cases — a tail window spanning a
chunk split, an app whose only packet is the last of a chunk, an empty
chunk, resume mid-tail — each get a dedicated test.
"""

from __future__ import annotations

import gc
import io
import warnings
import zipfile

import numpy as np
import pytest

from repro import StudyConfig, StudyEnergy, generate_study
from repro.errors import StreamError, TraceError
from repro.radio.attribution import (
    SUM_BLOCK,
    TailPolicy,
    attribute_energy,
    fold_idle,
)
from repro.radio.lte import LTE_DEFAULT
from repro.radio.streaming import RadioCarry, StreamingAttribution
from repro.stream import (
    CsvStreamSource,
    NpzStreamSource,
    StreamCheckpoint,
    StreamIngestor,
)
from repro.trace.dataset import Dataset
from repro.trace.io_text import (
    dataset_from_csv,
    write_events_csv,
    write_packets_csv,
)
from repro.trace.packet import Direction

from conftest import make_packets
from radio_reference import reference_attribution


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def assert_streams_equal_batch(result, study):
    """Every grouped total bit-identical between stream and batch."""
    for name in ("energy_by_app", "energy_by_app_state", "energy_by_state"):
        batch = getattr(study, name)()
        streamed = getattr(result, name)()
        assert list(batch) == list(streamed), f"{name} keys differ"
        assert np.array_equal(
            np.array(list(batch.values())),
            np.array(list(streamed.values())),
        ), f"{name} values differ"
    assert study.bytes_by_app() == result.bytes_by_app()
    assert study.idle_energy == result.idle_energy


def batch_per_packet(packets, window, policy=TailPolicy.LAST_PACKET):
    """The one engine's whole-trace answer, checked against the frozen
    reference engine on the way."""
    result = attribute_energy(
        LTE_DEFAULT, packets, window=window, policy=policy
    )
    per_packet, idle = reference_attribution(
        LTE_DEFAULT, packets, window, policy
    )
    assert np.array_equal(result.per_packet, per_packet)
    assert result.idle_energy == idle
    return result.per_packet, result.idle_energy


def stream_per_packet(chunks, window, policy=TailPolicy.LAST_PACKET):
    sim = StreamingAttribution(LTE_DEFAULT, policy, window)
    pieces = [sim.feed(chunk).per_packet for chunk in chunks]
    final, idle = sim.finish()
    pieces.append(final.per_packet)
    return np.concatenate(pieces), idle


@pytest.fixture(scope="module")
def saved_study(tmp_path_factory):
    """A 4-user study on disk plus its batch attribution."""
    dataset = generate_study(StudyConfig(n_users=4, duration_days=6, seed=9))
    path = tmp_path_factory.mktemp("stream") / "study.npz"
    dataset.save(path)
    return path, StudyEnergy(dataset)


# ----------------------------------------------------------------------
# StreamingAttribution: per-packet identity at chunk edges
# ----------------------------------------------------------------------
def test_tail_spanning_chunk_split():
    """A gap shorter than the tail crossing a chunk boundary: the tail
    energy must land on the packet before the split, exactly."""
    packets = make_packets(
        [
            (10.0, 1000, Direction.DOWNLINK, 1),
            (12.0, 500, Direction.UPLINK, 1),
            # gap 12 -> 14 is inside LTE_DEFAULT's tail; split here
            (14.0, 800, Direction.DOWNLINK, 2),
            (300.0, 400, Direction.UPLINK, 2),
        ]
    )
    window = (0.0, 400.0)
    expected, expected_idle = batch_per_packet(packets, window)
    for policy in TailPolicy:
        expected_p, expected_i = batch_per_packet(packets, window, policy)
        got, got_idle = stream_per_packet(
            [packets[:2], packets[2:]], window, policy
        )
        assert np.array_equal(got, expected_p)
        assert got_idle == expected_i
    got, got_idle = stream_per_packet([packets[:2], packets[2:]], window)
    assert np.array_equal(got, expected)
    assert got_idle == expected_idle


def test_app_whose_only_packet_is_last_of_chunk():
    """The chunk-final packet is pending when the chunk ends; its app
    must still receive its full settled energy, bit-identically."""
    packets = make_packets(
        [
            (5.0, 100, Direction.UPLINK, 1),
            (50.0, 2000, Direction.DOWNLINK, 7),  # app 7, last of chunk 1
            (400.0, 300, Direction.UPLINK, 1),
        ]
    )
    window = (0.0, 500.0)
    expected, expected_idle = batch_per_packet(packets, window)
    got, got_idle = stream_per_packet([packets[:2], packets[2:]], window)
    assert np.array_equal(got, expected)
    assert got_idle == expected_idle
    batch = attribute_energy(LTE_DEFAULT, packets, window=window)
    sim = StreamingAttribution(
        LTE_DEFAULT, TailPolicy.LAST_PACKET, window
    )
    from repro.core.readout import KeyedTotals

    totals = KeyedTotals()
    for chunk in (packets[:2], packets[2:]):
        settled = sim.feed(chunk)
        totals.add(settled.apps, settled.per_packet)
    settled, _ = sim.finish()
    totals.add(settled.apps, settled.per_packet)
    assert totals.as_dict() == batch.energy_by_app()


def test_empty_chunk_is_noop():
    packets = make_packets(
        [
            (10.0, 1000, Direction.DOWNLINK, 1),
            (90.0, 500, Direction.UPLINK, 2),
        ]
    )
    window = (0.0, 200.0)
    expected, expected_idle = batch_per_packet(packets, window)
    got, got_idle = stream_per_packet(
        [packets[:1], packets[:0], packets[1:], packets[:0]], window
    )
    assert np.array_equal(got, expected)
    assert got_idle == expected_idle


def test_single_packet_and_empty_user():
    one = make_packets([(25.0, 700, Direction.DOWNLINK, 3)])
    window = (0.0, 100.0)
    for policy in TailPolicy:
        expected, expected_idle = batch_per_packet(one, window, policy)
        got, got_idle = stream_per_packet([one], window, policy)
        assert np.array_equal(got, expected)
        assert got_idle == expected_idle
    sim = StreamingAttribution(
        LTE_DEFAULT, TailPolicy.LAST_PACKET, window
    )
    settled, idle = sim.finish()
    assert len(settled) == 0
    assert idle == (window[1] - window[0]) * LTE_DEFAULT.idle_power


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 50, 10_000])
@pytest.mark.parametrize("policy", list(TailPolicy))
def test_per_packet_identity_any_chunking(chunk_size, policy):
    rng = np.random.default_rng(4)
    n = 400
    ts = np.sort(rng.uniform(0.0, 5_000.0, n))
    packets = make_packets(
        [
            (float(ts[i]), int(rng.integers(40, 1500)),
             Direction.UPLINK if rng.integers(2) else Direction.DOWNLINK,
             int(rng.integers(1, 9)))
            for i in range(n)
        ]
    )
    window = (0.0, 6_000.0)
    expected, expected_idle = batch_per_packet(packets, window, policy)
    chunks = [
        packets[i : i + chunk_size] for i in range(0, n, chunk_size)
    ]
    got, got_idle = stream_per_packet(chunks, window, policy)
    assert np.array_equal(got, expected)
    assert got_idle == expected_idle


def test_idle_blocked_sum_across_block_boundary():
    """More inner gaps than SUM_BLOCK: the buffered flush must replay
    the whole-trace fold's exact block alignment."""
    rng = np.random.default_rng(11)
    n = SUM_BLOCK + 500
    # Wide gaps so most contribute idle time.
    ts = np.cumsum(rng.uniform(30.0, 60.0, n))
    packets = make_packets(
        [(float(t), 100, Direction.UPLINK, 1) for t in ts]
    )
    window = (0.0, float(ts[-1]) + 100.0)
    expected, expected_idle = batch_per_packet(packets, window)
    got, got_idle = stream_per_packet(
        [packets[i : i + 1000] for i in range(0, n, 1000)], window
    )
    assert np.array_equal(got, expected)
    assert got_idle == expected_idle


def test_blocked_sum_matches_manual_fold():
    """The idle fold sums fixed blocks counted from the first value,
    partials folded left to right, however the values arrive."""
    values = np.random.default_rng(3).uniform(size=3 * SUM_BLOCK + 17)
    total = 0.0
    for start in range(0, len(values), SUM_BLOCK):
        total += float(values[start : start + SUM_BLOCK].sum())
    for cuts in ([], [5], [SUM_BLOCK, 2 * SUM_BLOCK + 3], [100, 9000, 20000]):
        acc, partial = 0.0, np.empty(0)
        bounds = [0] + cuts + [len(values)]
        for lo, hi in zip(bounds, bounds[1:]):
            acc, partial = fold_idle(acc, partial, values[lo:hi])
        assert len(partial) == len(values) % SUM_BLOCK, cuts
        assert acc + float(partial.sum()) == total, cuts


def test_feed_rejects_bad_chunks():
    window = (0.0, 100.0)
    sim = StreamingAttribution(LTE_DEFAULT, TailPolicy.LAST_PACKET, window)
    sim.feed(make_packets([(50.0, 10, Direction.UPLINK, 1)]))
    with pytest.raises(StreamError):
        sim.feed(make_packets([(10.0, 10, Direction.UPLINK, 1)]))
    with pytest.raises(TraceError):
        sim.feed(make_packets([(500.0, 10, Direction.UPLINK, 1)]))
    sim.finish()
    with pytest.raises(StreamError):
        sim.feed(make_packets([(60.0, 10, Direction.UPLINK, 1)]))
    with pytest.raises(StreamError):
        sim.finish()


def test_radio_carry_payload_roundtrip():
    window = (0.0, 1_000.0)
    sim = StreamingAttribution(LTE_DEFAULT, TailPolicy.SPLIT_ADJACENT, window)
    packets = make_packets(
        [(float(t), 200, Direction.DOWNLINK, 2) for t in (5, 9, 40, 300)]
    )
    first = sim.feed(packets[:3])
    restored = RadioCarry.from_payload(sim.carry.to_payload())
    resumed = StreamingAttribution(
        LTE_DEFAULT, TailPolicy.SPLIT_ADJACENT, window, restored
    )
    rest = resumed.feed(packets[3:])
    final, idle = resumed.finish()
    got = np.concatenate(
        [first.per_packet, rest.per_packet, final.per_packet]
    )
    expected, expected_idle = batch_per_packet(
        packets, window, TailPolicy.SPLIT_ADJACENT
    )
    assert np.array_equal(got, expected)
    assert idle == expected_idle


# ----------------------------------------------------------------------
# Study-level identity: npz and CSV sources
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_size", [97, 4096])
def test_npz_stream_identical_to_batch(saved_study, chunk_size):
    path, study = saved_study
    source = NpzStreamSource(path, chunk_size=chunk_size)
    result = StreamIngestor(source).run()
    assert_streams_equal_batch(result, study)


@pytest.mark.parametrize("workers", [0, 2, None])
def test_workers_other_than_one_raise(saved_study, workers):
    """The ingestor runs in process; users run in parallel only as
    shards, whose partitions tests/test_shard.py holds identical."""
    path, _ = saved_study
    with pytest.raises(ValueError, match="repro.shard"):
        StreamIngestor(NpzStreamSource(path), workers=workers)


def test_split_policy_stream_identical(saved_study):
    path, _ = saved_study
    from repro.trace.dataset import Dataset

    dataset = Dataset.load(path)
    study = StudyEnergy(dataset, policy=TailPolicy.SPLIT_ADJACENT)
    source = NpzStreamSource(path, chunk_size=333)
    result = StreamIngestor(source, policy=TailPolicy.SPLIT_ADJACENT).run()
    assert_streams_equal_batch(result, study)


def test_csv_stream_identical_to_batch(tmp_path):
    dataset = generate_study(StudyConfig(n_users=2, duration_days=4, seed=5))
    pairs = []
    for trace in dataset:
        p = tmp_path / f"u{trace.user_id}_packets.csv"
        e = tmp_path / f"u{trace.user_id}_events.csv"
        write_packets_csv(p, trace.packets, dataset.registry)
        write_events_csv(e, trace.events, dataset.registry)
        pairs.append((p, e))
    study = StudyEnergy(dataset_from_csv(pairs))
    source = CsvStreamSource(pairs, chunk_size=189)
    result = StreamIngestor(source).run()
    assert_streams_equal_batch(result, study)
    # The prepass must reproduce the batch reader's registry exactly.
    batch_registry = dataset_from_csv(pairs).registry
    assert source.registry.to_json() == batch_registry.to_json()


def test_csv_source_rejects_unsorted(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "timestamp,size,direction,app\n"
        "10.0,100,up,a.one\n"
        "5.0,100,down,a.two\n"
    )
    with pytest.raises(StreamError, match="not time-sorted"):
        CsvStreamSource([(path, None)])


def test_csv_source_unsorted_error_reports_file_line(tmp_path):
    """With quarantine dropping rows before the defect, the error must
    name the actual file line of the out-of-order row — a surviving-row
    ordinal would misdirect whoever is told to sort the file."""
    path = tmp_path / "p.csv"
    path.write_text(
        "timestamp,size,direction,app\n"  # line 1: header
        "1.0,garbage,up,a.one\n"  # line 2: quarantined
        "10.0,100,up,a.one\n"  # line 3
        "5.0,100,down,a.two\n"  # line 4: out of order
    )
    with pytest.raises(
        StreamError, match=r"p\.csv:4: packets not time-sorted"
    ):
        CsvStreamSource([(path, None)], quarantine_rows=True)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_kill_and_resume_identical(saved_study, tmp_path):
    """Kill after a few chunks, resume with a different chunk size —
    still bit-identical, with no packet attributed twice."""
    path, study = saved_study
    ckpt = tmp_path / "run.ckpt.npz"
    killed = StreamIngestor(
        NpzStreamSource(path, chunk_size=64), checkpoint_path=ckpt
    ).run(max_chunks=3)
    assert killed is None
    assert ckpt.exists()
    result = StreamIngestor(
        NpzStreamSource(path, chunk_size=401), checkpoint_path=ckpt
    ).run(resume=True)
    assert_streams_equal_batch(result, study)


def test_resume_mid_tail(saved_study, tmp_path):
    """A checkpoint cut wherever max_chunks lands leaves a pending
    packet whose tail is still open; resuming must settle it exactly."""
    path, study = saved_study
    for cut in (1, 2, 5):
        ckpt = tmp_path / f"cut{cut}.ckpt.npz"
        killed = StreamIngestor(
            NpzStreamSource(path, chunk_size=33), checkpoint_path=ckpt
        ).run(max_chunks=cut)
        assert killed is None
        checkpoint = StreamCheckpoint.load(ckpt)
        running = [u for u in checkpoint.users if u.status == "running"]
        assert running, "expected a user mid-stream with an open tail"
        assert any(u.carry is not None for u in running)
        result = StreamIngestor(
            NpzStreamSource(path, chunk_size=33), checkpoint_path=ckpt
        ).run(resume=True)
        assert_streams_equal_batch(result, study)


def test_periodic_checkpoints_and_metrics(saved_study, tmp_path):
    from repro.metrics import RunMetrics

    path, study = saved_study
    ckpt = tmp_path / "periodic.ckpt.npz"
    metrics = RunMetrics()
    result = StreamIngestor(
        NpzStreamSource(path, chunk_size=256),
        checkpoint_path=ckpt,
        checkpoint_every=4,
        metrics=metrics,
    ).run()
    assert_streams_equal_batch(result, study)
    report = metrics.as_dict()
    assert report["counters"]["stream.checkpoints"] >= 2
    assert report["counters"]["stream.chunks"] > 0
    assert report["counters"]["stream.packets"] == sum(
        len(t.packets) for t in study.dataset
    )
    assert report["counters"]["stream.users"] == len(study.dataset)
    for stage in ("stream.read", "stream.attribute", "stream.checkpoint"):
        assert stage in report["stages"]
    assert "ingest_packets_per_s" in report["derived"]


def test_resume_rejects_mismatched_run(saved_study, tmp_path):
    path, _ = saved_study
    ckpt = tmp_path / "guard.ckpt.npz"
    StreamIngestor(
        NpzStreamSource(path, chunk_size=64), checkpoint_path=ckpt
    ).run(max_chunks=1)
    # Different policy.
    with pytest.raises(StreamError, match="policy"):
        StreamIngestor(
            NpzStreamSource(path, chunk_size=64),
            policy=TailPolicy.SPLIT_ADJACENT,
            checkpoint_path=ckpt,
        ).run(resume=True)
    # Different model.
    from repro.radio.umts import UMTS_DEFAULT

    with pytest.raises(StreamError, match="model"):
        StreamIngestor(
            NpzStreamSource(path, chunk_size=64),
            model=UMTS_DEFAULT,
            checkpoint_path=ckpt,
        ).run(resume=True)
    # Missing checkpoint path entirely.
    with pytest.raises(StreamError):
        StreamIngestor(NpzStreamSource(path, chunk_size=64)).run(resume=True)
    with pytest.raises(StreamError):
        StreamIngestor(NpzStreamSource(path, chunk_size=64)).run(max_chunks=1)


def test_resume_after_completion_returns_same_result(saved_study, tmp_path):
    path, study = saved_study
    ckpt = tmp_path / "final.ckpt.npz"
    StreamIngestor(
        NpzStreamSource(path, chunk_size=512), checkpoint_path=ckpt
    ).run()
    # Everything is done in the checkpoint; resume re-reads nothing.
    result = StreamIngestor(
        NpzStreamSource(path, chunk_size=512), checkpoint_path=ckpt
    ).run(resume=True)
    assert_streams_equal_batch(result, study)


def test_done_users_keep_their_pre_finish_carry(saved_study, tmp_path):
    """A finished user's checkpoint holds the carry it had after its
    last chunk, not the one ``finish()`` flushed, and a resume re-saves
    it unchanged: the bytes checkpoints have always held."""
    path, _ = saved_study
    source = NpzStreamSource(path, chunk_size=512)
    expected = {}
    for uid in source.user_ids:
        sim = StreamingAttribution(
            LTE_DEFAULT, TailPolicy.LAST_PACKET, source.window(uid)
        )
        for chunk in source.iter_chunks(uid):
            sim.feed(chunk)
        expected[uid] = sim.carry.to_payload()
    ckpt = tmp_path / "final.ckpt.npz"
    StreamIngestor(source, checkpoint_path=ckpt).run()
    for run in ("fresh", "resumed"):
        users = StreamCheckpoint.load(ckpt).users
        assert [u.user_id for u in users] == list(expected), run
        for user in users:
            assert user.status == "done", run
            want = expected[user.user_id]
            assert sorted(user.carry) == sorted(want), run
            for name, value in want.items():
                assert user.carry[name].dtype == value.dtype, (run, name)
                assert np.array_equal(user.carry[name], value), (run, name)
        StreamIngestor(source, checkpoint_path=ckpt).run(resume=True)


# ----------------------------------------------------------------------
# User quarantine (a chunk the radio layer rejects)
# ----------------------------------------------------------------------
def _unsort_member(src, dst, uid):
    """Copy a saved study, reversing the back half of one user's
    ``packets_<uid>`` member so a later chunk is out of time order."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(
        dst, "w", zipfile.ZIP_DEFLATED
    ) as zout:
        for info in zin.infolist():
            data = zin.read(info.filename)
            if info.filename == f"packets_{uid}.npy":
                packets = np.load(io.BytesIO(data))
                half = len(packets) // 2
                packets[half:] = packets[half:][::-1].copy()
                buffer = io.BytesIO()
                np.save(buffer, packets)
                data = buffer.getvalue()
            zout.writestr(info.filename, data)


def test_user_quarantine_in_process(saved_study, tmp_path):
    """With ``quarantine=True`` a user whose chunk the radio layer
    rejects is dropped and counted, and every other user's totals stay
    exact; without it the run writes its checkpoint and re-raises."""
    from repro.metrics import RunMetrics

    path, study = saved_study
    bad = study.user_ids[1]
    unsorted = tmp_path / "unsorted.npz"
    _unsort_member(path, unsorted, bad)

    metrics = RunMetrics()
    result = StreamIngestor(
        NpzStreamSource(unsorted, chunk_size=500),
        metrics=metrics,
        quarantine=True,
    ).run()
    assert list(result.failures) == [bad]
    assert "time-sorted" in result.failures[bad].cause
    assert metrics.counter("faults.users_quarantined") == 1
    good = [uid for uid in study.user_ids if uid != bad]
    assert result.user_ids == good
    for uid in good:
        want, got = study.user_totals(uid), result.user_totals(uid)
        for name in ("energy_by_app", "energy_by_app_state"):
            a, b = getattr(want, name)(), getattr(got, name)()
            assert list(a) == list(b)
            assert np.array_equal(list(a.values()), list(b.values()))
        assert want.bytes_by_app_state() == got.bytes_by_app_state()
        assert want.idle_energy == got.idle_energy

    ckpt = tmp_path / "abort.ckpt.npz"
    with pytest.raises(StreamError, match="time-sorted"):
        StreamIngestor(
            NpzStreamSource(unsorted, chunk_size=500), checkpoint_path=ckpt
        ).run()
    statuses = {u.user_id: u.status for u in StreamCheckpoint.load(ckpt).users}
    assert statuses[study.user_ids[0]] == "done"
    assert statuses[bad] == "running"


# ----------------------------------------------------------------------
# Torn-write durability (repro.faults satellite work)
# ----------------------------------------------------------------------
def _tiny_checkpoint():
    from repro.stream import UserCheckpoint

    users = [
        UserCheckpoint(user_id=1, status="running", rows_consumed=7),
        UserCheckpoint(user_id=2, status="done", idle_energy=4.25),
    ]
    users[0].totals.update(
        energy_keys=np.array([3, 5], dtype=np.int64),
        energy_values=np.array([1.5, 2.5]),
    )
    return StreamCheckpoint(
        "sig:test", LTE_DEFAULT, TailPolicy.LAST_PACKET, users, chunks_done=3
    )


def _assert_checkpoints_equal(a, b):
    assert a.signature == b.signature
    assert a.model_repr == b.model_repr
    assert a.policy_value == b.policy_value
    assert a.chunks_done == b.chunks_done
    assert len(a.users) == len(b.users)
    for ua, ub in zip(a.users, b.users):
        assert (ua.user_id, ua.status, ua.rows_consumed) == (
            ub.user_id,
            ub.status,
            ub.rows_consumed,
        )
        assert ua.idle_energy == ub.idle_energy
        assert list(ua.totals) == list(ub.totals)
        for name in ua.totals:
            assert np.array_equal(ua.totals[name], ub.totals[name])


def test_checkpoint_truncated_at_every_byte(tmp_path):
    """The durability property: a checkpoint file cut at ANY byte
    boundary either loads bit-identically or raises ``StreamError`` —
    never a stray exception, never silently wrong contents."""
    original = _tiny_checkpoint()
    path = tmp_path / "full.ckpt.npz"
    original.save(path)
    payload = path.read_bytes()
    target = tmp_path / "cut.ckpt.npz"
    outcomes = {"ok": 0, "rejected": 0}
    for cut in range(len(payload)):
        target.write_bytes(payload[:cut])
        try:
            loaded = StreamCheckpoint.load(target)
        except StreamError:
            outcomes["rejected"] += 1
        else:
            outcomes["ok"] += 1
            _assert_checkpoints_equal(loaded, original)
    # Every strict prefix must have been rejected (a zip's central
    # directory lives at the end, so no cut can stay parseable *and*
    # checksum-clean), and the intact file must load.
    assert outcomes == {"ok": 0, "rejected": len(payload)}
    target.write_bytes(payload)
    _assert_checkpoints_equal(StreamCheckpoint.load(target), original)


def test_damaged_archives_leave_no_file_open(tmp_path, saved_study):
    """A torn checkpoint and a cut-short dataset are refused through
    every door that opens them — ``StreamCheckpoint.load``,
    ``Dataset.load`` and ``NpzStreamSource`` — with the file closed on
    the way out, not left for the garbage collector (``np.load`` keeps
    a file it opened itself when a cut-short zip fails inside it)."""
    path, _ = saved_study
    checkpoint = _tiny_checkpoint()
    checkpoint.save(tmp_path / "full.ckpt.npz")
    torn = tmp_path / "torn.ckpt.npz"
    payload = (tmp_path / "full.ckpt.npz").read_bytes()
    torn.write_bytes(payload[: len(payload) // 2])
    cut = tmp_path / "cut.npz"
    payload = path.read_bytes()
    cut.write_bytes(payload[: len(payload) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StreamError, match="torn or corrupt"):
            StreamCheckpoint.load(torn)
        with pytest.raises(TraceError, match="cut.npz: not a dataset"):
            Dataset.load(cut)
        with pytest.raises(StreamError, match="cut.npz: not a dataset"):
            NpzStreamSource(cut)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize(
    "member, keys, values, defect",
    [
        ("energy_keys", [-1, 5], [1.5, 2.5], "outside"),
        ("energy_keys", [3, 65536], [1.5, 2.5], "outside"),
        ("state_keys", [0, 65536 * 256], [1.5, 2.5], "outside"),
        ("energy_keys", [5, 3], [1.5, 2.5], "strictly increasing"),
        ("bytes_keys", [3, 3], [1, 2], "strictly increasing"),
        ("energy_keys", [3.0, 5.0], [1.5, 2.5], "not 1-D int64"),
        ("energy_keys", [[3, 5]], [[1.5, 2.5]], "not 1-D int64"),
        ("state_keys", [3, 5], [1.5], "keys for values"),
    ],
)
def test_checkpoint_with_bad_keys_is_refused(tmp_path, member, keys, values, defect):
    """Keyed totals fold by indexing with their keys, so a saved key
    array must be 1-D int64, strictly increasing, as long as its values
    and in range. A checkpoint that breaks that, even one whose
    checksum is valid, is a StreamError naming the member."""
    checkpoint = _tiny_checkpoint()
    user = checkpoint.users[0]
    dtype = np.int64 if member == "bytes_keys" else np.float64
    user.totals[member] = np.array(keys)
    user.totals[member.replace("_keys", "_values")] = np.array(values, dtype)
    path = tmp_path / "bad.ckpt.npz"
    checkpoint.save(path)
    with pytest.raises(StreamError, match=f"member {member}_1: .*{defect}"):
        StreamCheckpoint.load(path)


def _with_value(column, index, value):
    column = column.copy()
    column[index] = value
    return column


def _case(name, member, edit, defect):
    return pytest.param(member, edit, defect, id=name)


@pytest.mark.parametrize(
    "member, edit, defect",
    [
        _case("floats-short", "floats", lambda a: a[:7], "not 8 float64"),
        _case(
            "floats-int", "floats", lambda a: a.astype(np.int64), "not 8 float64"
        ),
        _case(
            "floats-nan",
            "floats",
            lambda a: _with_value(a, 7, np.nan),
            "not finite",
        ),
        _case("ints-short", "ints", lambda a: a[:3], "not 4 int64"),
        _case(
            "ints-float", "ints", lambda a: a.astype(np.float64), "not 4 int64"
        ),
        _case(
            "no-packets", "ints", lambda a: _with_value(a, 0, 0), "n_packets is 0"
        ),
        _case(
            "app-range", "ints", lambda a: _with_value(a, 1, 65536), "pending app"
        ),
        _case(
            "state-range", "ints", lambda a: _with_value(a, 2, -1), "pending state"
        ),
        _case(
            "idle-grown",
            "idle_buffer",
            lambda a: np.concatenate([a, np.ones(8197)]),
            "not 2",
        ),
        _case("idle-short", "idle_buffer", lambda a: a[:1], "not 2"),
        _case(
            "idle-inf",
            "idle_buffer",
            lambda a: _with_value(a, 0, np.inf),
            "not finite",
        ),
        _case(
            "idle-2d",
            "idle_buffer",
            lambda a: a.reshape(1, -1),
            "not 1-D float64",
        ),
    ],
)
def test_checkpoint_with_bad_carry_is_refused(tmp_path, member, edit, defect):
    """A resume continues the radio simulation from the saved carry, so
    a carry whose checksum is valid but whose shape, values or idle
    block do not fit what a feed leaves behind is a StreamError naming
    the member: never an IndexError or a wrong idle energy later."""
    checkpoint = _tiny_checkpoint()
    sim = StreamingAttribution(LTE_DEFAULT, TailPolicy.LAST_PACKET, (0.0, 500.0))
    sim.feed(
        make_packets(
            [(t, 100, Direction.UPLINK, 3) for t in (10.0, 80.0, 300.0)]
        )
    )
    carry = sim.carry.to_payload()
    path = tmp_path / "good.ckpt.npz"
    checkpoint.users[0].carry = carry
    checkpoint.save(path)
    loaded = StreamCheckpoint.load(path)
    for name, value in carry.items():
        assert np.array_equal(loaded.users[0].carry[name], value)
    checkpoint.users[0].carry = dict(carry, **{member: edit(carry[member])})
    path = tmp_path / "bad.ckpt.npz"
    checkpoint.save(path)
    with pytest.raises(StreamError, match=f"member carry_{member}_1: .*{defect}"):
        StreamCheckpoint.load(path)


@pytest.fixture(scope="module")
def cadence_checkpoint(saved_study, tmp_path_factory):
    """A finished ingest checkpoint of the saved study, with cadence."""
    path = tmp_path_factory.mktemp("cadence") / "run.ckpt.npz"
    StreamIngestor(NpzStreamSource(saved_study[0]), checkpoint_path=path).run()
    return path


def _drop_last(column):
    return column[:-1]


@pytest.mark.parametrize(
    "member, edit, defect",
    [
        _case("burst-counts-short", "burst_counts", _drop_last, "entries for"),
        _case("burst-ts-short", "burst_last_ts", _drop_last, "entries for"),
        _case(
            "burst-start-short", "burst_last_start", _drop_last, "entries for"
        ),
        _case("flow-last-short", "flow_last", _drop_last, "entries for"),
        _case("flow-counts-short", "flow_counts", _drop_last, "entries for"),
        _case(
            "offsets-cut",
            "interval_offsets",
            lambda a: a[:2],
            "entries for .* burst_apps",
        ),
        _case(
            "offsets-start",
            "interval_offsets",
            lambda a: a + 1,
            "do not rise from 0",
        ),
        _case(
            "offsets-end",
            "interval_offsets",
            lambda a: _with_value(a, -1, a[-1] - 1),
            "do not rise from 0",
        ),
        _case(
            "offsets-fall",
            "interval_offsets",
            lambda a: _with_value(a, 1, a[-1] + 1),
            "do not rise from 0",
        ),
        _case(
            "flow-keys-float",
            "flow_keys",
            lambda a: a.astype(np.float64),
            "not 1-D int64",
        ),
        _case(
            "intervals-2d",
            "intervals",
            lambda a: a.reshape(1, -1),
            "not 1-D float64",
        ),
        _case(
            "counts-float",
            "burst_counts",
            lambda a: a.astype(np.float64),
            "not 1-D int64",
        ),
        _case(
            "burst-apps-unsorted",
            "burst_apps",
            lambda a: a[::-1].copy(),
            "strictly increasing",
        ),
        _case(
            "flow-keys-repeated",
            "flow_keys",
            lambda a: _with_value(a, 1, a[0]),
            "strictly increasing",
        ),
        _case(
            "burst-app-range",
            "burst_apps",
            lambda a: _with_value(a, -1, 65536),
            "outside",
        ),
        _case(
            "count-app-range",
            "flow_count_apps",
            lambda a: _with_value(a, 0, -1),
            "outside",
        ),
        _case(
            "flow-app-range",
            "flow_keys",
            lambda a: _with_value(a, -1, 65536 << 32),
            "outside",
        ),
    ],
)
def test_checkpoint_with_bad_cadence_is_refused(
    cadence_checkpoint, tmp_path, member, edit, defect
):
    """A readout and a resume rebuild each user's cadence tracker by
    zipping the saved members, so a cadence whose checksum is valid but
    whose members are short, unsorted, out of range or of another dtype
    is a StreamError naming the member: never an app's cadence dropped
    without a word, or an IndexError later."""
    checkpoint = StreamCheckpoint.load(cadence_checkpoint)
    user = checkpoint.users[0]
    user.cadence = dict(user.cadence, **{member: edit(user.cadence[member])})
    path = tmp_path / "bad.ckpt.npz"
    checkpoint.save(path)
    with pytest.raises(
        StreamError, match=f"member cad_{member}_{user.user_id}: .*{defect}"
    ):
        StreamCheckpoint.load(path)


#: Each user's members of a finished ingest checkpoint, in file order,
#: with their dtypes: the format checkpoints have been written in since
#: format 2, which a resume and a readout still read.
SAVED_USER_MEMBERS = [
    ("energy_keys", "int64"),
    ("energy_values", "float64"),
    ("state_keys", "int64"),
    ("state_values", "float64"),
    ("bytes_keys", "int64"),
    ("bytes_values", "int64"),
    ("idle", "float64"),
    ("carry_floats", "float64"),
    ("carry_ints", "int64"),
    ("carry_idle_buffer", "float64"),
    ("cad_flow_keys", "int64"),
    ("cad_flow_last", "float64"),
    ("cad_flow_count_apps", "int64"),
    ("cad_flow_counts", "int64"),
    ("cad_burst_apps", "int64"),
    ("cad_burst_counts", "int64"),
    ("cad_burst_last_ts", "float64"),
    ("cad_burst_last_start", "float64"),
    ("cad_interval_offsets", "int64"),
    ("cad_intervals", "float64"),
]


def test_ingest_checkpoint_members_keep_their_names(tmp_path):
    """A saved ingest checkpoint keeps its member names, order and
    dtypes, so checkpoints written by earlier versions still resume."""
    study = tmp_path / "study.npz"
    generate_study(StudyConfig(n_users=2, duration_days=1.0, seed=3)).save(
        study
    )
    path = tmp_path / "run.ckpt.npz"
    StreamIngestor(NpzStreamSource(study), checkpoint_path=path).run()
    with np.load(path) as archive:
        saved = [(name, archive[name].dtype.name) for name in archive.files]
    assert saved == [
        (f"{name}_{uid}", dtype)
        for uid in (1, 2)
        for name, dtype in SAVED_USER_MEMBERS
    ] + [("header", "uint8"), ("checksum", "uint8")]


def test_checkpoint_keys_at_the_bounds_load(tmp_path):
    checkpoint = _tiny_checkpoint()
    user = checkpoint.users[0]
    user.totals["energy_keys"] = np.array([0, 65535], dtype=np.int64)
    user.totals["state_keys"] = np.array([0, 65536 * 256 - 1], dtype=np.int64)
    user.totals["state_values"] = np.array([0.0, 1.0])
    path = tmp_path / "edge.ckpt.npz"
    checkpoint.save(path)
    _assert_checkpoints_equal(StreamCheckpoint.load(path), checkpoint)


def test_torn_checkpoint_falls_back_to_previous(tmp_path):
    from repro.durable import previous_path

    path = tmp_path / "run.ckpt.npz"
    first = _tiny_checkpoint()
    first.save(path)
    second = _tiny_checkpoint()
    second.chunks_done = 9
    second.save(path)
    assert previous_path(path).exists()
    # Tear the current generation after the fact.
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    # On its own (no rotation beside it) the torn file is rejected.
    alone = tmp_path / "alone.ckpt.npz"
    alone.write_bytes(path.read_bytes())
    with pytest.raises(StreamError):
        StreamCheckpoint.load(alone)
    recovered = StreamCheckpoint.load(path)
    assert recovered.loaded_from_fallback
    _assert_checkpoints_equal(recovered, first)
    # An intact current generation never reports a fallback.
    second.save(path)
    assert not StreamCheckpoint.load(path).loaded_from_fallback
    # A checkpoint from before the checksum era is rejected, not trusted.
    legacy = {"header": np.frombuffer(b'{"users": []}', dtype=np.uint8)}
    np.savez(tmp_path / "legacy.npz", **legacy)
    with pytest.raises(StreamError, match="no content checksum"):
        StreamCheckpoint.load(tmp_path / "legacy.npz")


def test_missing_current_falls_back_to_previous(tmp_path):
    """A crash between save()'s two renames (rotation done, final
    rename not) leaves no current file but a known-good ``.prev``;
    load() must recover that generation rather than lose the run."""
    from repro.durable import previous_path

    path = tmp_path / "run.ckpt.npz"
    first = _tiny_checkpoint()
    first.save(path)
    second = _tiny_checkpoint()
    second.chunks_done = 9
    second.save(path)
    path.unlink()  # the crash window between the two renames
    recovered = StreamCheckpoint.load(path)
    assert recovered.loaded_from_fallback
    _assert_checkpoints_equal(recovered, first)
    # With no generation at all there is nothing to recover.
    previous_path(path).unlink()
    with pytest.raises(StreamError, match="no checkpoint"):
        StreamCheckpoint.load(path)


# ----------------------------------------------------------------------
# Row quarantine (malformed CSV rows dropped, counted, sampled)
# ----------------------------------------------------------------------
def test_csv_row_quarantine_identity(tmp_path):
    """With ``quarantine_rows=True`` malformed rows are dropped and the
    streamed totals stay bit-identical to a batch run over the clean
    file; without it the prepass aborts with a typed error."""
    from repro.metrics import RunMetrics

    dataset = generate_study(StudyConfig(n_users=2, duration_days=2, seed=31))
    pairs = []
    for trace in dataset:
        p = tmp_path / f"u{trace.user_id}_packets.csv"
        e = tmp_path / f"u{trace.user_id}_events.csv"
        write_packets_csv(p, trace.packets, dataset.registry)
        write_events_csv(e, trace.events, dataset.registry)
        pairs.append((p, e))
    study = StudyEnergy(dataset_from_csv(pairs))
    clean_registry = dataset_from_csv(pairs).registry

    # Dirty one user's packet file: three rows that parse as CSV but
    # fail field validation (bad timestamp, bad size, bad direction).
    dirty = tmp_path / "dirty_packets.csv"
    lines = pairs[0][0].read_text().splitlines()
    lines.insert(2, "not-a-time,100,up,zz.bogus")
    lines.insert(30, f"{5.0},###corrupt###,down,zz.bogus")
    lines.append("9999999.0,10,sideways,zz.bogus")
    dirty.write_text("\n".join(lines) + "\n")
    dirty_pairs = [(dirty, pairs[0][1])] + pairs[1:]

    with pytest.raises(StreamError, match="malformed packet row"):
        CsvStreamSource(dirty_pairs, chunk_size=97)

    source = CsvStreamSource(dirty_pairs, chunk_size=97, quarantine_rows=True)
    assert source.quarantine.count == 3
    assert len(source.quarantine.samples) == 3
    assert any("not-a-time" in s for s in source.quarantine.samples)
    # Rows quarantined before the app field parses must not have
    # registered their app name.
    assert source.registry.to_json() == clean_registry.to_json()

    metrics = RunMetrics()
    result = StreamIngestor(source, metrics=metrics).run()
    assert_streams_equal_batch(result, study)
    assert metrics.counter("faults.rows_quarantined") == 3
    assert len(metrics.samples("faults.rows_quarantined")) == 3
    assert "faults.rows_quarantined" in metrics.as_dict()["samples"]
