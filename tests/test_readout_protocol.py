"""The EnergyReadout protocol: batch == stream == checkpoint, exactly.

Every totals-tier analysis must produce identical results — dict-equal
floats, byte-identical rendered text — whether it reads the in-memory
batch :class:`StudyEnergy`, a live :class:`StreamResult`, or a
:class:`TotalsReadout` loaded from a finished ingest checkpoint, across
chunk sizes and a sharded run's merge. Per-packet analyses must fail fast on
totals-only readouts with the typed :class:`NeedsPacketDetail`.
"""

import numpy as np
import pytest

from repro.core.accounting import StudyEnergy
from repro.core.casestudies import case_study_row, case_study_table
from repro.core.headlines import headline_stats, totals_headline_stats
from repro.core.longitudinal import weekly_background_energy
from repro.core.popularity import top10_appearance_counts, top_consumers
from repro.core.readout import (
    EnergyReadout,
    KeyedTotals,
    TotalsReadout,
    UserTotalsView,
    readout_from_checkpoint,
    require_packet_detail,
    sequential_sum,
)
from repro.core.recommend import recommendation_report
from repro.core.report import render_fig1, render_fig2, render_fig3, render_table1
from repro.core.statefrac import state_energy_fractions
from repro.policy import kill_policy_savings
from repro.errors import AnalysisError, NeedsPacketDetail, StreamError
from repro import StudyConfig, generate_study
from repro.shard import (
    ShardManifest,
    merge_to_checkpoint,
    merged_readout,
    run_all_shards,
)
from repro.store.render import readout_payload, render_analysis
from repro.stream import NpzStreamSource, StreamIngestor
from repro.keyed import split_app_state
from repro.trace.events import background_state_values

CASE_APP = "com.sec.spp.push"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One saved study, its batch attribution, and a checkpoint dir."""
    dataset = generate_study(StudyConfig(n_users=4, duration_days=10, seed=1234))
    root = tmp_path_factory.mktemp("readout")
    path = root / "study.npz"
    dataset.save(path)
    return path, StudyEnergy(dataset), root


def _ingest(corpus, chunk_size, shards, tag):
    """One ingest: the in-memory readout plus its checkpoint on disk.

    With ``shards`` the study runs as a plan over the shard pool, and
    the in-memory readout is the merge of the shard checkpoints.
    """
    path, _, root = corpus
    ck = root / f"ck_{tag}.npz"
    source = NpzStreamSource(path, chunk_size=chunk_size)
    if shards is None:
        result = StreamIngestor(source, checkpoint_path=ck).run()
        return result, ck
    manifest = ShardManifest.plan(source, shards)
    shard_dir = root / f"shards_{tag}"
    run_all_shards(manifest, shard_dir, shard_workers=shards)
    merge_to_checkpoint(manifest, shard_dir, ck)
    return merged_readout(manifest, shard_dir), ck


@pytest.fixture(scope="module", params=[(64, None), (257, None), (64, 2)])
def readouts(request, corpus):
    """(study, stream result, checkpoint readout) for one config."""
    chunk_size, shards = request.param
    result, ck = _ingest(corpus, chunk_size, shards, f"{chunk_size}_{shards}")
    return corpus[1], result, readout_from_checkpoint(ck)


# ----------------------------------------------------------------------
# Protocol shape
# ----------------------------------------------------------------------
def test_all_three_satisfy_the_protocol(readouts):
    for source in readouts:
        assert isinstance(source, EnergyReadout)
    study, result, loaded = readouts
    assert study.has_packet_detail is True
    assert result.has_packet_detail is False
    assert loaded.has_packet_detail is False


def test_user_ids_and_registry_agree(readouts):
    study, result, loaded = readouts
    assert result.user_ids == study.user_ids
    assert loaded.user_ids == study.user_ids
    app_id = study.app_id(CASE_APP)
    for other in (result, loaded):
        assert other.app_id(CASE_APP) == app_id
        assert other.app_name(app_id) == study.app_name(app_id)
        assert other.app_category(app_id) == study.app_category(app_id)


def test_duration_days_agree(readouts):
    study, result, loaded = readouts
    for uid in study.user_ids:
        assert result.duration_days(uid) == study.duration_days(uid)
        assert loaded.duration_days(uid) == study.duration_days(uid)


# ----------------------------------------------------------------------
# Totals tier: exact equality
# ----------------------------------------------------------------------
def test_study_wide_totals_exact(readouts):
    study, result, loaded = readouts
    for other in (result, loaded):
        assert other.energy_by_app() == study.energy_by_app()
        assert other.energy_by_app_state() == study.energy_by_app_state()
        assert other.energy_by_state() == study.energy_by_state()
        assert other.bytes_by_app() == study.bytes_by_app()
        assert other.idle_energy == study.idle_energy
        assert other.attributed_energy == study.attributed_energy
        assert other.total_energy == study.total_energy


def test_readout_payloads_equal_but_for_the_study_id(readouts):
    """The served ``readout`` artefact: batch, stream and checkpoint
    agree in every number. ``study`` is the path-specific provenance
    id; an in-memory ingest result carries no provenance at all."""
    study, result, loaded = readouts
    want = readout_payload(study)
    for other in (result, loaded):
        got = readout_payload(other)
        skip = {"study"} if other.provenance else {"study", "model", "policy"}
        assert {k: v for k, v in got.items() if k not in skip} == {
            k: v for k, v in want.items() if k not in skip
        }
        assert list(got) == list(want)
        for key in ("energy_by_app_j", "bytes_by_app", "energy_by_state_j"):
            assert list(got[key]) == list(want[key])


@pytest.mark.parametrize(
    "values, zero, want",
    [
        # Left to right, 1e16 + 1.0 rounds back to 1e16; CPython 3.12's
        # compensated sum() would return 1.0.
        ([1e16, 1.0, -1e16], 0.0, 0.0),
        ([], 0.0, 0.0),
        ([], 0, 0),
        ([3, 4, 5], 0, 12),
    ],
)
def test_sequential_sum_adds_left_to_right(values, zero, want):
    got = sequential_sum(values, zero=zero)
    assert got == want
    assert type(got) is type(want)


def test_study_wide_folds_are_memoized_and_copied_out(readouts, monkeypatch):
    for source in readouts:
        want = source.energy_by_app()
        want_state = source.energy_by_app_state()
        source.energy_by_app().clear()
        # Later calls copy the memo out; they never read the users again.
        monkeypatch.setattr(source, "user_totals", None)
        assert source.energy_by_app() == want
        assert source.energy_by_app() is not source.energy_by_app()
        assert source.energy_by_app_state() == want_state


def test_user_totals_exact(readouts):
    study, result, loaded = readouts
    app_id = study.app_id(CASE_APP)
    for uid in study.user_ids:
        want = study.user_totals(uid)
        for other in (result, loaded):
            got = other.user_totals(uid)
            assert got.energy_by_app() == want.energy_by_app()
            assert got.energy_by_app_state() == want.energy_by_app_state()
            assert got.bytes_by_app_state() == want.bytes_by_app_state()
            assert got.bytes_by_app() == want.bytes_by_app()
            assert got.idle_energy == want.idle_energy
            assert got.background_energy(app_id) == want.background_energy(
                app_id
            )
            assert got.background_bytes(app_id) == want.background_bytes(app_id)


_BG_STATES = frozenset(int(v) for v in background_state_values())


def _walked_background(by_key, app_id, zero):
    """Table 1's background sum as it once was: split every (app, state)
    key of the user and keep one app's background states."""
    total = zero
    for key, value in by_key.items():
        app, state = split_app_state(key)
        if app == app_id and state in _BG_STATES:
            total += value
    return total


def test_background_sums_equal_the_key_walk(readouts):
    """Looking up an app's background keys adds the same values in the
    same order as walking every key: each path's dicts iterate in
    sorted key order, which puts one app's states in increasing order."""
    study = readouts[0]
    app_ids = [app.app_id for app in study.registry]
    app_ids.append(max(app_ids) + 1)  # an app the study never saw
    for source in readouts:
        for uid in study.user_ids:
            view = source.user_totals(uid)
            for by_key in (view._energy, view._app_state, view._bytes_state):
                assert list(by_key) == sorted(by_key)
            for app_id in app_ids:
                assert view.background_energy(app_id) == _walked_background(
                    view._app_state, app_id, 0.0
                )
                assert view.background_bytes(app_id) == _walked_background(
                    view._bytes_state, app_id, 0
                )


def test_background_sums_add_in_state_order():
    """Float addition is not associative: these values sum to 0.0 in
    increasing state order and to 1.0 in any order that adds the two
    large ones first. Other apps' keys and foreground states are
    skipped."""
    states = sorted(_BG_STATES)
    app_state = {
        7 * 256 + 0: 5.0,  # foreground
        7 * 256 + states[0]: 1.0,
        7 * 256 + states[1]: 1e16,
        7 * 256 + states[2]: -1e16,
        8 * 256 + states[0]: 3.0,
    }
    bytes_state = {key: int(abs(value)) for key, value in app_state.items()}
    view = UserTotalsView(0, {7: 0.0, 8: 3.0}, app_state, bytes_state, 0.0)
    assert view.background_energy(7) == 0.0
    assert view.background_energy(7) == _walked_background(app_state, 7, 0.0)
    assert view.background_energy(8) == 3.0
    assert view.background_energy(9) == 0.0
    assert view.background_bytes(7) == 1 + 2 * 10**16
    assert view.background_bytes(9) == 0


# ----------------------------------------------------------------------
# Cadence tier: exact equality at the default gaps
# ----------------------------------------------------------------------
def test_background_cadence_exact(readouts):
    study, result, loaded = readouts
    app_id = study.app_id(CASE_APP)
    want = study.background_cadence(app_id)
    for other in (result, loaded):
        got = other.background_cadence(app_id)
        assert got.n_users == want.n_users
        assert got.n_flows == want.n_flows
        for mine, ref in zip(got.per_user, want.per_user):
            assert mine.user_id == ref.user_id
            assert mine.n_flows == ref.n_flows
            assert mine.n_bursts == ref.n_bursts
            assert np.array_equal(mine.intervals, ref.intervals)
        assert got.update_frequency() == want.update_frequency()


def test_background_cadence_exact_for_every_app(readouts):
    """Every app with background traffic, not just the case-study one,
    plus the Table 1 text rendered from the cadence."""
    study, result, loaded = readouts
    apps = sorted(
        {
            int(app)
            for uid in study.user_ids
            for app in study.index_for(uid).app_ids
            if len(study.index_for(uid).app_background_indices(int(app)))
        }
    )
    assert len(apps) > 1
    for app_id in apps:
        want = study.background_cadence(app_id)
        for other in (result, loaded):
            got = other.background_cadence(app_id)
            assert [u.user_id for u in got.per_user] == [
                u.user_id for u in want.per_user
            ]
            for mine, ref in zip(got.per_user, want.per_user):
                assert (mine.n_flows, mine.n_bursts) == (
                    ref.n_flows,
                    ref.n_bursts,
                ), app_id
                assert mine.intervals.tobytes() == ref.intervals.tobytes()
            assert got.update_frequency() == want.update_frequency()
    table1 = render_analysis("table1", study)
    assert render_analysis("table1", result) == table1
    assert render_analysis("table1", loaded) == table1


def test_cadence_non_default_gaps_need_packets(readouts):
    study, result, _ = readouts
    app_id = study.app_id(CASE_APP)
    # The batch engine recomputes at any gap; a totals readout cannot.
    study.background_cadence(app_id, flow_gap=600.0)
    with pytest.raises(NeedsPacketDetail, match="flow_gap"):
        result.background_cadence(app_id, flow_gap=600.0)


# ----------------------------------------------------------------------
# Analyses: byte-identical rendered output
# ----------------------------------------------------------------------
def test_case_study_row_identical(readouts):
    study, result, loaded = readouts
    want = case_study_row(study, CASE_APP)
    assert case_study_row(result, CASE_APP) == want
    assert case_study_row(loaded, CASE_APP) == want


def test_rendered_outputs_byte_identical(readouts):
    study, result, loaded = readouts
    for other in (result, loaded):
        assert render_fig1(top10_appearance_counts(other)) == render_fig1(
            top10_appearance_counts(study.dataset)
        )
        assert render_fig2(
            top_consumers(other, by="energy"), top_consumers(other, by="data")
        ) == render_fig2(
            top_consumers(study, by="energy"), top_consumers(study, by="data")
        )
        assert render_fig3(state_energy_fractions(other)) == render_fig3(
            state_energy_fractions(study)
        )
        assert render_table1(case_study_table(other)) == render_table1(
            case_study_table(study)
        )


def test_totals_headlines_identical(readouts):
    study, result, loaded = readouts
    want = totals_headline_stats(study)
    assert totals_headline_stats(result) == want
    assert totals_headline_stats(loaded) == want
    # And the batch composite keeps them as its exact first entries.
    assert headline_stats(study)[: len(want)] == want


# ----------------------------------------------------------------------
# Per-packet analyses fail fast and typed
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "call",
    [
        lambda r: headline_stats(r),
        lambda r: kill_policy_savings(r, CASE_APP),
        lambda r: weekly_background_energy(r),
        lambda r: recommendation_report(r),
    ],
)
def test_per_packet_analyses_raise_needs_packet_detail(readouts, call):
    _, result, loaded = readouts
    for other in (result, loaded):
        with pytest.raises(NeedsPacketDetail) as exc:
            call(other)
        # Typed and actionable: an AnalysisError naming the fix.
        assert isinstance(exc.value, AnalysisError)
        assert "--from-checkpoint" in str(exc.value)


def test_require_packet_detail_passes_batch_sources(corpus):
    _, study, _ = corpus
    assert require_packet_detail(study, "x") is study
    assert require_packet_detail(study.dataset, "x") is study.dataset


# ----------------------------------------------------------------------
# Checkpoint loader edge cases
# ----------------------------------------------------------------------
def test_mid_run_checkpoint_refuses_analysis(corpus):
    path, _, root = corpus
    ck = root / "midrun.npz"
    source = NpzStreamSource(path, chunk_size=64)
    StreamIngestor(source, checkpoint_path=ck).run(max_chunks=2)
    with pytest.raises(StreamError, match="--resume"):
        readout_from_checkpoint(ck)


def test_resumed_checkpoint_matches_batch(corpus):
    path, study, root = corpus
    ck = root / "resumed.npz"
    source = NpzStreamSource(path, chunk_size=64)
    StreamIngestor(source, checkpoint_path=ck).run(max_chunks=3)
    source = NpzStreamSource(path, chunk_size=64)
    StreamIngestor(source, checkpoint_path=ck).run(resume=True)
    loaded = readout_from_checkpoint(ck)
    assert loaded.energy_by_app() == study.energy_by_app()
    assert render_table1(case_study_table(loaded)) == render_table1(
        case_study_table(study)
    )


def test_no_cadence_ingest_still_serves_totals(corpus):
    path, study, root = corpus
    ck = root / "nocad.npz"
    source = NpzStreamSource(path, chunk_size=128)
    result = StreamIngestor(
        source, checkpoint_path=ck, cadence=False
    ).run()
    assert result.energy_by_app() == study.energy_by_app()
    with pytest.raises(NeedsPacketDetail, match="cadence"):
        result.background_cadence(study.app_id(CASE_APP))
    loaded = readout_from_checkpoint(ck)
    assert loaded.energy_by_app() == study.energy_by_app()
    with pytest.raises(NeedsPacketDetail):
        case_study_row(loaded, CASE_APP)


def test_readout_without_registry_is_rejected():
    readout = TotalsReadout([])
    with pytest.raises(StreamError, match="registry"):
        readout.app_id("com.a")


def test_keyed_totals_rejects_other_dtypes():
    with pytest.raises(ValueError):
        KeyedTotals(dtype=np.float32)
