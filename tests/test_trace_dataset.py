"""UserTrace, AppRegistry and Dataset persistence."""

import json

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.dataset import AppInfo, AppRegistry, Dataset
from repro.trace.events import EventLog, ProcessState, ProcessStateEvent, ScreenEvent, UserInputEvent
from repro.trace.packet import Direction
from repro.trace.trace import UserTrace

from conftest import make_packets


def _registry():
    return AppRegistry([AppInfo(1, "app.one", "social"), AppInfo(2, "app.two", "game")])


def _trace(user_id=1):
    packets = make_packets(
        [
            (10.0, 100, Direction.UPLINK, 1),
            (20.0, 200, Direction.DOWNLINK, 2),
        ]
    )
    events = EventLog(
        process_events=[ProcessStateEvent(5.0, 1, ProcessState.FOREGROUND)],
        screen_events=[ScreenEvent(5.0, True)],
        input_events=[UserInputEvent(6.0, 1)],
    )
    return UserTrace(user_id, 0.0, 100.0, packets, events)


def test_registry_lookup():
    reg = _registry()
    assert reg.id_of("app.one") == 1
    assert reg.name_of(2) == "app.two"
    assert "app.one" in reg
    assert 1 in reg
    assert "missing" not in reg
    assert len(reg) == 2
    assert [a.name for a in reg] == ["app.one", "app.two"]


def test_registry_rejects_duplicates():
    reg = _registry()
    with pytest.raises(TraceError):
        reg.add(AppInfo(1, "other", "x"))
    with pytest.raises(TraceError):
        reg.add(AppInfo(3, "app.one", "x"))


def test_registry_register_assigns_next_id():
    reg = _registry()
    info = reg.register("app.three", "tools")
    assert info.app_id == 3


def test_registry_unknown_lookups():
    reg = _registry()
    with pytest.raises(TraceError):
        reg.by_id(99)
    with pytest.raises(TraceError):
        reg.by_name("nope")


def test_registry_categories_and_json():
    reg = _registry()
    assert [a.name for a in reg.in_category("game")] == ["app.two"]
    restored = AppRegistry.from_json(reg.to_json())
    assert restored.name_of(1) == "app.one"
    assert restored.by_id(2).category == "game"


def test_trace_basics():
    trace = _trace()
    assert trace.duration == 100.0
    assert trace.app_ids() == [1, 2]
    assert len(trace.packets_for_app(1)) == 1
    trace.validate()


def test_trace_rejects_reversed_window():
    with pytest.raises(TraceError):
        UserTrace(1, 10.0, 5.0, make_packets([]), EventLog())


def test_trace_validate_packets_outside_window():
    packets = make_packets([(500.0, 10, Direction.UPLINK, 1)])
    trace = UserTrace(1, 0.0, 100.0, packets, EventLog())
    with pytest.raises(TraceError):
        trace.validate()


def test_trace_label_states():
    trace = _trace()
    trace.label_states()
    labelled = trace.packets.for_app(1)
    assert ProcessState(int(labelled.states[0])) is ProcessState.FOREGROUND


def test_trace_flow_cache():
    trace = _trace()
    table1 = trace.flows()
    assert trace.flows() is table1
    trace.invalidate_flows()
    assert trace.flows() is not table1


def test_dataset_roundtrip(tmp_path):
    dataset = Dataset(_registry(), [_trace(1), _trace(2)], {"seed": 7})
    path = tmp_path / "study.npz"
    dataset.save(path)
    restored = Dataset.load(path)
    assert len(restored) == 2
    assert restored.metadata == {"seed": 7}
    assert restored.registry.name_of(1) == "app.one"
    original = dataset.user(1)
    loaded = restored.user(1)
    assert np.array_equal(original.packets.data, loaded.packets.data)
    assert len(loaded.events.process_events) == 1
    assert loaded.events.screen_events[0].on is True
    assert loaded.events.input_events[0].app == 1
    restored.validate()


def test_dataset_unknown_user():
    dataset = Dataset(_registry(), [_trace(1)])
    with pytest.raises(TraceError):
        dataset.user(9)


def test_dataset_totals():
    dataset = Dataset(_registry(), [_trace(1), _trace(2)])
    assert dataset.total_packets == 4
    assert dataset.total_bytes == 600


def test_dataset_validate_checks_registry():
    packets = make_packets([(1.0, 10, Direction.UPLINK, 42)])
    trace = UserTrace(1, 0.0, 10.0, packets, EventLog())
    dataset = Dataset(_registry(), [trace])
    with pytest.raises(TraceError):
        dataset.validate()


def test_append_user_and_extend():
    dataset = Dataset(_registry(), [_trace(1)])
    dataset.append_user(_trace(2))
    assert [t.user_id for t in dataset.users] == [1, 2]
    dataset.extend([_trace(3), _trace(4)])
    assert [t.user_id for t in dataset.users] == [1, 2, 3, 4]
    dataset.validate()


def test_append_user_rejects_duplicate_id():
    dataset = Dataset(_registry(), [_trace(1)])
    with pytest.raises(TraceError):
        dataset.append_user(_trace(1))
    with pytest.raises(TraceError):
        dataset.extend([_trace(2), _trace(2)])


def test_fingerprint_cached_and_invalidated_by_mutation():
    dataset = Dataset(_registry(), [_trace(1)])
    before = dataset.fingerprint()
    # Cached: repeated calls return the same digest object state.
    assert dataset.fingerprint() == before
    dataset.append_user(_trace(2))
    after = dataset.fingerprint()
    assert after != before
    dataset.extend([_trace(3)])
    assert dataset.fingerprint() != after


def test_label_states_invalidates_fingerprint():
    dataset = Dataset(_registry(), [_trace(1)])
    before = dataset.fingerprint()
    dataset.label_states()
    assert dataset.fingerprint() != before


def _members(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def _rewritten(**changes):
    """An archive edit: ``None`` deletes a member, a callable maps it."""

    def edit(path, out):
        members = _members(path)
        for name, change in changes.items():
            if change is None:
                del members[name]
            else:
                members[name] = change(members[name])
        np.savez(out, **members)

    return edit


def _with_field(field, value):
    def change(array):
        array = array.copy()
        array[field][0] = value
        return array

    return change


def _with_user_window(field, value):
    """A header edit: user 1's ``field`` set to ``value``."""

    def change(raw):
        header = json.loads(bytes(raw).decode("utf-8"))
        header["users"][0][field] = value
        return np.frombuffer(json.dumps(header).encode("utf-8"), np.uint8)

    return change


MALFORMED_ARCHIVES = {
    "truncated": (
        lambda path, out: out.write_bytes(path.read_bytes()[:200]),
        r"bad\.npz: not a dataset: ",
    ),
    "not-zip": (
        lambda path, out: out.write_bytes(b"no zip here\n" * 8),
        r"bad\.npz: not a dataset: ",
    ),
    "proc-missing": (_rewritten(proc_1=None), r"bad\.npz: no member 'proc_1'"),
    "header-missing": (_rewritten(header=None), r"bad\.npz: no member 'header'"),
    "header-not-json": (
        _rewritten(header=lambda _: np.frombuffer(b"{users", np.uint8)),
        r"bad\.npz: header: ",
    ),
    "header-start-not-a-time": (
        _rewritten(header=_with_user_window("start", "soon")),
        r"bad\.npz: header: user 1: want an integer id and finite times "
        r"start <= end, got \(1, 'soon', ",
    ),
    "header-end-before-start": (
        _rewritten(header=_with_user_window("end", -1.0)),
        r"bad\.npz: header: user 1: .* got \(1, 0\.0, -1\.0\)$",
    ),
    "proc-foreign-dtype": (
        _rewritten(proc_1=lambda a: a.astype([("t", "f8"), ("app", "u2"), ("state", "u1")])),
        r"bad\.npz: user 1: proc: expected dtype ",
    ),
    "proc-state-9": (
        _rewritten(proc_1=_with_field("state", 9)),
        r"bad\.npz: user 1: proc: state 9 out of range 0\.\.5",
    ),
    "screen-on-2": (
        _rewritten(screen_1=_with_field("on", 2)),
        r"bad\.npz: user 1: screen: on 2 out of range 0\.\.1",
    ),
    "input-nan-time": (
        _rewritten(input_1=_with_field("timestamp", np.nan)),
        r"bad\.npz: user 1: input: non-finite timestamp nan",
    ),
    "packets-foreign-dtype": (
        _rewritten(packets_1=lambda a: a["timestamp"].copy()),
        r"bad\.npz: user 1: packets: expected dtype ",
    ),
    "packets-inf-time": (
        _rewritten(packets_1=_with_field("timestamp", np.inf)),
        r"bad\.npz: user 1: packets: non-finite timestamp",
    ),
    "packets-state-7": (
        _rewritten(packets_1=_with_field("state", 7)),
        r"bad\.npz: user 1: packets: state label 7 is neither a ProcessState",
    ),
    "packets-direction-7": (
        _rewritten(packets_1=_with_field("direction", 7)),
        r"bad\.npz: user 1: packets: direction 7 is neither uplink \(0\) "
        r"nor downlink \(1\)$",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARCHIVES))
def test_load_malformed_archive_is_a_trace_error(tmp_path, case):
    """Each damaged copy of a saved dataset raises TraceError naming the
    file, and the member at fault — never a raw numpy, zip or JSON
    error."""
    path = Dataset(_registry(), [_trace(1), _trace(2)]).save(tmp_path / "ok.npz")
    damage, message = MALFORMED_ARCHIVES[case]
    bad = tmp_path / "bad.npz"
    damage(path, bad)
    with pytest.raises(TraceError, match=message):
        Dataset.load(bad)


def test_load_missing_file_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        Dataset.load(tmp_path / "absent.npz")


def test_state_label_outside_process_state_is_refused_by_both_readers(
    tmp_path,
):
    """A saved packet state that is no ProcessState and not unlabelled
    (255) is a typed error from the batch and the stream reader, naming
    the file, the user and the member — not a raw ``ValueError`` from
    whatever renders it later. 255 still loads."""
    from repro import StudyConfig, generate_study
    from repro.errors import StreamError
    from repro.stream import NpzStreamSource

    dataset = generate_study(StudyConfig(n_users=1, duration_days=1.0, seed=3))
    states = dataset.users[0].packets.data["state"]
    states[:5] = 7
    path = dataset.save(tmp_path / "s.npz")
    with pytest.raises(TraceError) as caught:
        Dataset.load(path)
    assert str(caught.value) == (
        "s.npz: user 1: packets: state label 7 is neither a ProcessState "
        "nor unlabelled (255)"
    )
    with pytest.raises(StreamError) as caught:
        list(NpzStreamSource(path, chunk_size=1000).iter_chunks(1))
    assert str(caught.value) == (
        "s.npz: user 1: packets_1: state label 7 is neither a ProcessState "
        "nor unlabelled (255)"
    )
    states[:5] = 255
    dataset.save(path)
    loaded = Dataset.load(path)
    streamed = np.concatenate(
        [chunk.data for chunk in NpzStreamSource(path).iter_chunks(1)]
    )
    np.testing.assert_array_equal(streamed, loaded.users[0].packets.data)
    assert (loaded.users[0].packets.states[:5] == 255).all()


def test_direction_outside_uplink_downlink_is_refused_by_the_stream_reader(
    tmp_path,
):
    """A saved packet direction other than uplink (0) or downlink (1) is
    a typed StreamError naming the archive, the user and the member,
    raised before the chunk holding it is yielded; the chunks before it
    still stream. A bad direction is named before a bad state label in
    the same chunk."""
    from repro import StudyConfig, generate_study
    from repro.errors import StreamError
    from repro.stream import NpzStreamSource

    dataset = generate_study(StudyConfig(n_users=1, duration_days=1.0, seed=3))
    data = dataset.users[0].packets.data
    data["direction"][2500:2505] = 7
    data["state"][2600] = 7
    path = dataset.save(tmp_path / "s.npz")
    chunks = NpzStreamSource(path, chunk_size=1000).iter_chunks(1)
    assert [len(next(chunks)) for _ in range(2)] == [1000, 1000]
    with pytest.raises(StreamError) as caught:
        next(chunks)
    assert str(caught.value) == (
        "s.npz: user 1: packets_1: direction 7 is neither uplink (0) nor "
        "downlink (1)"
    )


#: The MALFORMED_ARCHIVES cases that damage an event member, which the
#: stream reader never opens: it streams packets only.
EVENT_MEMBER_CASES = {
    "proc-missing",
    "proc-foreign-dtype",
    "proc-state-9",
    "screen-on-2",
    "input-nan-time",
}

STREAM_CASES = {
    **{
        case: damage
        for case, (damage, _) in MALFORMED_ARCHIVES.items()
        if case not in EVENT_MEMBER_CASES
    },
    "packets-missing": _rewritten(packets_1=None),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_stream_reader_refuses_malformed_archive(tmp_path, case):
    """The stream door refuses what ``Dataset.load`` refuses, as a
    StreamError naming the file — never a raw zip, JSON or key error,
    and never a non-finite time streamed on into the attribution."""
    from repro.errors import StreamError
    from repro.stream import NpzStreamSource

    path = Dataset(_registry(), [_trace(1), _trace(2)]).save(tmp_path / "ok.npz")
    bad = tmp_path / "bad.npz"
    STREAM_CASES[case](path, bad)
    with pytest.raises(StreamError, match=r"^bad\.npz: "):
        list(NpzStreamSource(bad).iter_chunks(1))


@pytest.mark.parametrize("case", sorted(EVENT_MEMBER_CASES))
def test_stream_reader_never_reads_event_members(tmp_path, case):
    from repro.stream import NpzStreamSource

    path = Dataset(_registry(), [_trace(1), _trace(2)]).save(tmp_path / "ok.npz")
    bad = tmp_path / "bad.npz"
    MALFORMED_ARCHIVES[case][0](path, bad)
    streamed = list(NpzStreamSource(bad).iter_chunks(1))
    np.testing.assert_array_equal(streamed[0].data, _trace(1).packets.data)


def test_stream_reader_names_a_member_cut_short(tmp_path):
    """A packets member whose compressed stream ends early is a
    StreamError naming the file, the user and the member."""
    import zipfile

    from repro.errors import StreamError
    from repro.stream import NpzStreamSource

    path = Dataset(_registry(), [_trace(1), _trace(2)]).save(tmp_path / "ok.npz")
    source = NpzStreamSource(path)
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members["packets_2.npy"] = members["packets_2.npy"][:-8]
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    with pytest.raises(
        StreamError, match=r"^ok\.npz: user 2: packets_2: truncated"
    ):
        list(source.iter_chunks(2))


def test_packet_defect_names_a_non_finite_time_first():
    from repro.trace.arrays import packet_defect

    packets = _trace(1).packets.data.copy()
    assert packet_defect(packets) is None
    packets["direction"][0] = 7
    packets["timestamp"][1] = np.nan
    assert packet_defect(packets) == "non-finite timestamp nan"
    with pytest.raises(TraceError, match="packet non-finite timestamp nan"):
        from repro.trace.arrays import PacketArray

        PacketArray(packets).validate()
