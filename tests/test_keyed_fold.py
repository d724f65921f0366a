"""The keyed fold, against frozen copies of the group-bys it replaced.

Per-app and per-(app, state) totals were once computed in four places
as ``np.unique(keys, return_inverse=True)`` followed by
``np.bincount`` (float) or ``np.add.at`` (int64):
``AttributionResult._group_sum`` and ``energy_by_app_state``,
``KeyedTotals.add`` and ``PacketArray.bytes_by_app``. The references
below are those copies. :func:`repro.keyed.fold_totals` and every
caller of it must give the same keys and the same value bits on any
input: app ids 0 and 65,535, every process state plus the unlabelled
sentinel and a label outside ``ProcessState``, repeated keys, zero
weights, empty chunks, sizes up to ``2**32 - 1``, and running totals
carried across random chunk splits.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.keyed import KeyedTotals, UserTotals, fold_totals
from repro.radio.attribution import attribute_energy
from repro.radio.lte import LTE_DEFAULT
from repro.trace.arrays import PACKET_DTYPE, STATE_UNLABELLED, PacketArray
from repro.trace.events import ProcessState
from repro.trace.packet import Direction


# ----------------------------------------------------------------------
# Frozen references: the group-bys as they were before the keyed fold.
# ----------------------------------------------------------------------
def reference_group_sum(keys, weights):
    """``AttributionResult._group_sum`` as arrays."""
    if len(keys) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    unique, inverse = np.unique(keys, return_inverse=True)
    return unique.astype(np.int64), np.bincount(inverse, weights=weights)


def reference_app_state_sum(apps, states, weights):
    """``AttributionResult.energy_by_app_state`` as arrays."""
    combined = apps.astype(np.int64) * 256 + states.astype(np.int64)
    return reference_group_sum(combined, weights)


def reference_keyed_add(carry, keys, amounts, dtype):
    """``KeyedTotals.add``: the carry as leading entries, then
    ``np.unique`` + ``np.bincount`` (float64) or ``np.add.at`` (int64)."""
    if len(keys) == 0:
        return carry
    all_keys = np.concatenate([carry[0], np.asarray(keys, np.int64)])
    all_amounts = np.concatenate([carry[1], np.asarray(amounts, dtype)])
    uniq, inverse = np.unique(all_keys, return_inverse=True)
    if np.dtype(dtype) == np.dtype(np.float64):
        sums = np.bincount(inverse, weights=all_amounts, minlength=len(uniq))
    else:
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, all_amounts)
    return uniq, sums


def reference_bytes_by_app(apps, sizes):
    """Per-app byte totals, exact: ``np.unique`` + ``np.add.at``."""
    if len(apps) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    unique, inverse = np.unique(apps, return_inverse=True)
    sums = np.zeros(len(unique), np.int64)
    np.add.at(sums, inverse, sizes.astype(np.int64))
    return unique.astype(np.int64), sums


def assert_same_totals(got, want):
    """Same keys, same dtype, same value bits."""
    got_keys, got_values = got
    want_keys, want_values = want
    assert got_keys.dtype == np.int64
    assert np.array_equal(got_keys, want_keys)
    assert got_values.dtype == want_values.dtype
    assert np.array_equal(
        got_values.view(np.int64), want_values.view(np.int64)
    )


def dict_arrays(totals, dtype):
    """A ``{key: value}`` dict as (keys, values) arrays, in dict order."""
    keys = np.array(list(totals), dtype=np.int64)
    values = np.array(list(totals.values()), dtype=dtype)
    return keys, values


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
STATE_LABELS = sorted(
    {int(s) for s in ProcessState} | {STATE_UNLABELLED, 7}
)
APP_IDS = st.one_of(
    st.sampled_from([0, 1, 43, 339, 65534, 65535]),
    st.integers(0, 65535),
)
ENERGIES = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-16, 0.1, 1.0, 3.0]),
    st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
)
SIZES = st.one_of(st.sampled_from([1, 2**32 - 1]), st.integers(1, 2**32 - 1))


@st.composite
def keyed_rows(draw, max_rows=48):
    """(apps uint16, states uint8, energies, sizes int64, chunk cuts).

    Apps come from a small pool so keys repeat; cuts may coincide, so
    chunks may be empty.
    """
    n = draw(st.integers(0, max_rows))
    pool = draw(st.lists(APP_IDS, min_size=1, max_size=4))
    apps = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    states = draw(
        st.lists(st.sampled_from(STATE_LABELS), min_size=n, max_size=n)
    )
    energies = draw(st.lists(ENERGIES, min_size=n, max_size=n))
    sizes = draw(st.lists(SIZES, min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    return (
        np.array(apps, np.uint16),
        np.array(states, np.uint8),
        np.array(energies, np.float64),
        np.array(sizes, np.int64),
        cuts,
    )


def chunks_of(cuts, n):
    bounds = [0, *cuts, n]
    return list(zip(bounds[:-1], bounds[1:]))


#: The collision a naive ``app * 6 + state`` key makes:
#: (app 1, state 255) and (app 43, state 3) both map to 261.
NAIVE_COLLISION = (
    np.array([1, 43, 1, 43], np.uint16),
    np.array([255, 3, 255, 3], np.uint8),
    np.array([0.5, 1.5, 2.5, 3.5]),
    np.array([10, 20, 30, 40], np.int64),
    [2],
)

#: A carry that must enter first: (1.0 + 1e-16) + 1e-16 == 1.0, while
#: 1.0 + (1e-16 + 1e-16) rounds up to the next float.
CARRY_FIRST = (
    np.array([5, 5, 5], np.uint16),
    np.array([2, 2, 2], np.uint8),
    np.array([1.0, 1e-16, 1e-16]),
    np.array([1, 2, 3], np.int64),
    [1],
)


# ----------------------------------------------------------------------
# One fold over a whole input
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(rows=keyed_rows())
@example(rows=NAIVE_COLLISION)
def test_fold_by_app_matches_unique(rows):
    apps, _, energies, sizes, _ = rows
    assert_same_totals(
        fold_totals(apps, energies), reference_group_sum(apps, energies)
    )
    assert_same_totals(
        fold_totals(apps, sizes), reference_bytes_by_app(apps, sizes)
    )


@settings(max_examples=150, deadline=None)
@given(rows=keyed_rows())
@example(rows=NAIVE_COLLISION)
def test_fold_by_app_state_matches_unique(rows):
    apps, states, energies, _, _ = rows
    assert_same_totals(
        fold_totals(apps, energies, states),
        reference_app_state_sum(apps, states, energies),
    )


def _packets(apps, states, sizes):
    """A time-ordered trace of the rows, one packet every 7.5 s."""
    data = np.zeros(len(apps), dtype=PACKET_DTYPE)
    data["timestamp"] = np.arange(len(apps), dtype=np.float64) * 7.5
    data["size"] = sizes
    data["direction"] = int(Direction.DOWNLINK)
    data["app"] = apps
    data["state"] = states
    return PacketArray(data)


@settings(max_examples=60, deadline=None)
@given(rows=keyed_rows())
@example(rows=NAIVE_COLLISION)
def test_attribution_and_packet_views_match_unique(rows):
    apps, states, _, sizes, _ = rows
    packets = _packets(apps, states, sizes)
    result = attribute_energy(
        LTE_DEFAULT, packets, window=(0.0, 7.5 * len(apps) + 60.0)
    )
    per_packet = result.per_packet
    assert_same_totals(
        dict_arrays(result.energy_by_app(), np.float64),
        reference_group_sum(apps, per_packet),
    )
    # Per (app, state) as StudyEnergy.user_totals folds it.
    app_state = KeyedTotals()
    app_state.add(packets.apps, per_packet, packets.states)
    by_app_state = app_state.as_dict()
    want_keys, want_values = reference_app_state_sum(apps, states, per_packet)
    assert list(by_app_state) == want_keys.tolist()
    assert np.array_equal(
        np.array(list(by_app_state.values()), np.float64).view(np.int64),
        want_values.view(np.int64),
    )
    bytes_by_app = packets.bytes_by_app()
    assert all(type(v) is int for v in bytes_by_app.values())
    assert_same_totals(
        dict_arrays(bytes_by_app, np.int64),
        reference_bytes_by_app(apps, sizes),
    )


# ----------------------------------------------------------------------
# Running totals carried across chunks
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(rows=keyed_rows())
@example(rows=NAIVE_COLLISION)
@example(rows=CARRY_FIRST)
def test_keyed_totals_carry_across_chunks(rows):
    """``KeyedTotals.add`` chunk by chunk equals the frozen carry-first
    fold chunk by chunk, and both equal one fold of the whole input:
    the contract that makes stream totals bit-identical to batch."""
    apps, states, energies, sizes, cuts = rows
    combined = apps.astype(np.int64) * 256 + states.astype(np.int64)
    energy = KeyedTotals()
    app_state = KeyedTotals()
    byte_totals = KeyedTotals(dtype=np.int64)
    empty_f = (np.empty(0, np.int64), np.empty(0, np.float64))
    empty_i = (np.empty(0, np.int64), np.empty(0, np.int64))
    want_energy, want_state, want_bytes = empty_f, empty_f, empty_i
    for lo, hi in chunks_of(cuts, len(apps)):
        energy.add(apps[lo:hi], energies[lo:hi])
        app_state.add(apps[lo:hi], energies[lo:hi], states[lo:hi])
        byte_totals.add(apps[lo:hi], sizes[lo:hi], states[lo:hi])
        want_energy = reference_keyed_add(
            want_energy, apps[lo:hi], energies[lo:hi], np.float64
        )
        want_state = reference_keyed_add(
            want_state, combined[lo:hi], energies[lo:hi], np.float64
        )
        want_bytes = reference_keyed_add(
            want_bytes, combined[lo:hi], sizes[lo:hi], np.int64
        )
    assert_same_totals(energy.payload(), want_energy)
    assert_same_totals(app_state.payload(), want_state)
    assert_same_totals(byte_totals.payload(), want_bytes)
    assert_same_totals(energy.payload(), reference_group_sum(apps, energies))
    assert_same_totals(
        app_state.payload(), reference_app_state_sum(apps, states, energies)
    )
    assert list(app_state.as_dict()) == want_state[0].tolist()


#: The saved forms of a :class:`UserTotals`: a checkpoint's members
#: (user 7) and a follow window cell's arrays (bucket 3, user 2).
CHECKPOINT_NAMING = "{member}_{part}_7"
FOLLOW_NAMING = "w0_b3_u2_{m}{p}"


def assert_same_arrays(got, want):
    """Same names in the same order, same dtypes, same bits."""
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert np.array_equal(
            got[name].view(np.int64), want[name].view(np.int64)
        )


@settings(max_examples=150, deadline=None)
@given(rows=keyed_rows())
@example(rows=NAIVE_COLLISION)
@example(rows=CARRY_FIRST)
def test_user_totals_any_chunking_equals_one_add(rows):
    """``UserTotals.add`` chunk by chunk saves the same arrays, bit for
    bit, as one ``add`` of the whole run: the contract that lets the
    stream, the follow buckets and batch hold the same record."""
    apps, states, energies, sizes, cuts = rows
    chunked, whole = UserTotals(), UserTotals()
    for lo, hi in chunks_of(cuts, len(apps)):
        chunked.add(apps[lo:hi], energies[lo:hi], states[lo:hi], sizes[lo:hi])
    whole.add(apps, energies, states, sizes)
    assert_same_arrays(
        chunked.arrays(CHECKPOINT_NAMING), whole.arrays(CHECKPOINT_NAMING)
    )
    energy, app_state, bytes_state = whole.as_dicts()
    assert_same_totals(
        dict_arrays(energy, np.float64), reference_group_sum(apps, energies)
    )
    assert_same_totals(
        dict_arrays(app_state, np.float64),
        reference_app_state_sum(apps, states, energies),
    )
    assert all(type(v) is int for v in bytes_state.values())


@settings(max_examples=150, deadline=None)
@given(rows=keyed_rows())
@example(rows=NAIVE_COLLISION)
@example(rows=CARRY_FIRST)
def test_whole_run_equals_one_add(rows):
    """``UserTotals.whole_run`` takes its per-app joules from a fold the
    caller already holds, and saves the arrays of one ``add`` of the
    run into an empty record, bit for bit."""
    apps, states, energies, sizes, _ = rows
    whole = UserTotals()
    whole.add(apps, energies, states, sizes)
    got = UserTotals.whole_run(
        fold_totals(apps, energies), apps, energies, states, sizes
    )
    assert_same_arrays(
        got.arrays(CHECKPOINT_NAMING), whole.arrays(CHECKPOINT_NAMING)
    )


def test_batch_user_totals_reuse_each_results_app_fold(
    small_dataset, monkeypatch
):
    """``StudyEnergy.user_totals`` folds only the (app, state) members:
    the per-app joules are the fold its attribution result holds."""
    import repro.keyed as keyed
    from repro import StudyEnergy
    from repro.core.readout import UserTotalsView

    study = StudyEnergy(small_dataset)
    want = {}
    for uid in study.user_ids:
        result = study.user_result(uid)
        packets = result.packets
        record = UserTotals()
        record.add(packets.apps, result.per_packet, packets.states, packets.sizes)
        want[uid] = UserTotalsView(uid, *record.as_dicts(), result.idle_energy)
        result.app_totals  # the fold energy_by_app() keeps
    folded = []
    real = keyed.fold_totals

    def counting(keys, values, states=None, carry=None):
        folded.append(states is not None)
        return real(keys, values, states, carry)

    monkeypatch.setattr(keyed, "fold_totals", counting)
    for uid in study.user_ids:
        got = study.user_totals(uid)
        for read in ("energy_by_app", "energy_by_app_state", "bytes_by_app_state"):
            assert list(getattr(got, read)().items()) == list(
                getattr(want[uid], read)().items()
            )
    assert folded and all(folded)


@pytest.mark.parametrize(
    "name, want",
    [
        (
            CHECKPOINT_NAMING,
            [
                "energy_keys_7",
                "energy_values_7",
                "state_keys_7",
                "state_values_7",
                "bytes_keys_7",
                "bytes_values_7",
            ],
        ),
        (
            FOLLOW_NAMING,
            [
                "w0_b3_u2_ek",
                "w0_b3_u2_ev",
                "w0_b3_u2_sk",
                "w0_b3_u2_sv",
                "w0_b3_u2_yk",
                "w0_b3_u2_yv",
            ],
        ),
    ],
    ids=["checkpoint", "follow"],
)
def test_user_totals_round_trip_under_each_naming(name, want):
    apps, states, energies, sizes, _ = NAIVE_COLLISION
    totals = UserTotals()
    totals.add(apps, energies, states, sizes)
    saved = totals.arrays(name)
    assert list(saved) == want
    assert [saved[n].dtype for n in want] == [
        np.int64, np.float64, np.int64, np.float64, np.int64, np.int64
    ]
    loaded = UserTotals.from_arrays(saved, name)
    assert_same_arrays(loaded.arrays(name), saved)
    assert loaded.as_dicts() == totals.as_dicts()
    empty = UserTotals().arrays(name)
    assert_same_arrays(UserTotals.from_arrays(empty, name).arrays(name), empty)


@pytest.mark.parametrize("naming", [CHECKPOINT_NAMING, FOLLOW_NAMING])
@pytest.mark.parametrize(
    "member, keys, values, defect",
    [
        ("energy", [-1, 5], [1.5, 2.5], "outside"),
        ("energy", [3, 65536], [1.5, 2.5], "outside"),
        ("state", [0, 65536 * 256], [1.5, 2.5], "outside"),
        ("bytes", [3, 65536 * 256], [1, 2], "outside"),
        ("state", [5, 3], [1.5, 2.5], "strictly increasing"),
        ("bytes", [3, 3], [1, 2], "strictly increasing"),
        ("energy", [3.0, 5.0], [1.5, 2.5], "not 1-D int64"),
        ("bytes", [[3, 5]], [[1, 2]], "not 1-D int64"),
        ("state", [3, 5], [1.5], "keys for values"),
    ],
)
def test_user_totals_key_defect_names_its_member(
    naming, member, keys, values, defect
):
    """Each member's key array is checked at load, and a defect is one
    ``ValueError`` naming that member's keys under the caller's
    naming; a bound is the member's own (app or app-state keys)."""
    saved = UserTotals().arrays(naming)
    tag = member[0] if member != "bytes" else "y"
    fields = dict(member=member, m=tag)
    keys_name = naming.format(part="keys", p="k", **fields)
    values_name = naming.format(part="values", p="v", **fields)
    saved[keys_name] = np.array(keys)
    saved[values_name] = np.array(values, saved[values_name].dtype)
    with pytest.raises(ValueError, match=f"^{keys_name}: .*{defect}"):
        UserTotals.from_arrays(saved, naming)


def test_carry_enters_first():
    """The running total is the first addend of its key, not added to
    the chunk's own sum afterwards."""
    totals = KeyedTotals()
    totals.add(np.array([5]), np.array([1.0]), np.array([2]))
    totals.add(np.array([5, 5]), np.array([1e-16, 1e-16]), np.array([2, 2]))
    assert totals.as_dict() == {5 * 256 + 2: 1.0}


def test_app_state_keys_never_merge():
    """A naive dense ``app * 6 + state`` key merges (1, 255) into
    (43, 3); the fold keeps every (app, state) pair apart."""
    apps, states, energies, _, _ = NAIVE_COLLISION
    keys, totals = fold_totals(apps, energies, states)
    assert keys.tolist() == [1 * 256 + 255, 43 * 256 + 3]
    assert totals.tolist() == [3.0, 5.0]


def test_zero_energy_key_is_present():
    keys, totals = fold_totals(
        np.array([3, 9], np.uint16), np.array([0.0, 2.0])
    )
    assert keys.tolist() == [3, 9]
    assert totals.tolist() == [0.0, 2.0]


def test_empty_chunk_leaves_totals_alone():
    totals = KeyedTotals(np.array([4], np.int64), np.array([1.5]))
    totals.add(np.empty(0, np.uint16), np.empty(0), np.empty(0, np.uint8))
    keys, values = totals.payload()
    assert keys.tolist() == [4] and values.tolist() == [1.5]


def test_per_packet_is_computed_once_and_read_only():
    packets = _packets(
        np.array([1, 2], np.uint16),
        np.array([0, 1], np.uint8),
        np.array([100, 200], np.int64),
    )
    result = attribute_energy(LTE_DEFAULT, packets, window=(0.0, 100.0))
    assert result.per_packet is result.per_packet
    with pytest.raises(ValueError):
        result.per_packet[0] = 0.0
    keys, totals = result.app_totals
    assert result.app_totals[0] is keys
    for array in (keys, totals):
        with pytest.raises(ValueError):
            array[0] = 0


def test_energy_by_app_returns_equal_distinct_dicts(packets_two_apps):
    result = attribute_energy(
        LTE_DEFAULT, packets_two_apps, window=(0.0, 200.0)
    )
    first = result.energy_by_app()
    first[1] = -1.0  # a caller may edit its copy
    second = result.energy_by_app()
    assert second is not first
    assert second == result.energy_by_app()
    assert second[1] > 0


def test_energy_by_app_folds_once_per_result(small_dataset, monkeypatch):
    """``evaluate_policy`` asks every before-result for its per-app
    energy once per policy; the per-app fold still runs once per
    attribution result."""
    import repro.radio.attribution as attribution
    from repro import StudyEnergy
    from repro.cli import TABLE2_APPS
    from repro.policy import available_policies, evaluate_policy, get_policy

    folded = []
    real = attribution.fold_totals

    def counting(keys, values, states=None, carry=None):
        if states is None:
            folded.append(values)
        return real(keys, values, states, carry)

    monkeypatch.setattr(attribution, "fold_totals", counting)
    study = StudyEnergy(small_dataset)
    registry = small_dataset.registry
    apps = [name for name in TABLE2_APPS if name in registry]
    assert apps
    for name in available_policies():
        evaluate_policy(study, get_policy(name), apps=apps)
    for uid in study.user_ids:
        study.user_totals(uid)
    assert len(folded) >= len(study.user_ids)
    assert len({id(values) for values in folded}) == len(folded)
