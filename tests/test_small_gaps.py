"""Small coverage gaps: edge cases across modules."""

import numpy as np
import pytest

from repro.errors import (
    AnalysisError,
    ModelError,
    ReproError,
    TraceError,
    WorkloadError,
)
from repro.radio.base import RadioInterval, RadioState
from repro.radio.attribution import TailPolicy, attribute_energy
from repro.trace.arrays import PacketArray
from repro.trace.packet import Direction

from conftest import make_packets


def test_error_hierarchy():
    for exc in (TraceError, ModelError, WorkloadError, AnalysisError):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)


def test_radio_interval_energy():
    interval = RadioInterval(1.0, 3.0, RadioState.TAIL, power=0.5, phase=1)
    assert interval.duration == pytest.approx(2.0)
    assert interval.energy == pytest.approx(1.0)
    assert interval.phase == 1


def test_tail_policy_single_packet_unchanged():
    """A lone packet closes its trace: SPLIT_ADJACENT leaves its whole
    tail on it, exactly as LAST_PACKET does."""
    from test_radio_machine import TOY

    one = make_packets([(10.0, 1000, Direction.DOWNLINK, 1)])
    last, split = (
        attribute_energy(TOY, one, window=(0.0, 15.0), policy=policy)
        for policy in (TailPolicy.LAST_PACKET, TailPolicy.SPLIT_ADJACENT)
    )
    # promotion 2 J + transfer 0.001 J + the 5 s of tail to the window end.
    assert split.per_packet.tolist() == pytest.approx([2.0 + 0.001 + 5.0])
    assert np.array_equal(split.per_packet, last.per_packet)


def test_packet_array_getitem_slice():
    packets = make_packets(
        [(float(i), 100, Direction.UPLINK, 1) for i in range(5)]
    )
    head = packets[:2]
    assert isinstance(head, PacketArray)
    assert len(head) == 2
    single = packets[np.array([0, 3])]
    assert len(single) == 2
    assert single.timestamps.tolist() == [0.0, 3.0]


def test_flow_total_and_duration_properties():
    from repro.trace.flow import Flow

    flow = Flow(1, 2, 3, start=1.0, end=4.0, packets=2, bytes_up=10, bytes_down=20)
    assert flow.total_bytes == 30
    assert flow.duration == pytest.approx(3.0)


def test_update_frequency_edge_describe():
    from repro.core.periodicity import UpdateFrequency

    sparse = UpdateFrequency(0.0, 0.0, 0.0, 0)
    assert not sparse.is_periodic
    assert "varying" in sparse.describe()


def test_case_study_row_skip_missing_false(medium_study):
    from repro.core.casestudies import case_study_table

    with pytest.raises(ReproError):
        case_study_table(
            medium_study,
            classes=(("X", ("does.not.exist",)),),
            skip_missing=False,
        )


def test_kill_policy_unknown_app(medium_study):
    from repro.policy import kill_policy_savings

    with pytest.raises(ReproError):
        kill_policy_savings(medium_study, "does.not.exist")


def test_consumer_row_repr_fields(medium_study):
    from repro.core.popularity import top_consumers

    row = top_consumers(medium_study, n=1)[0]
    assert row.category
    assert row.total_energy > 0


def test_dataset_save_load_empty_events(tmp_path):
    from repro.trace.dataset import AppInfo, AppRegistry, Dataset
    from repro.trace.events import EventLog
    from repro.trace.trace import UserTrace

    registry = AppRegistry([AppInfo(1, "a", "x")])
    trace = UserTrace(
        1, 0.0, 10.0,
        make_packets([(1.0, 100, Direction.UPLINK, 1)]),
        EventLog(),
    )
    path = tmp_path / "d.npz"
    Dataset(registry, [trace]).save(path)
    restored = Dataset.load(path)
    assert len(restored.users[0].events) == 0
    assert len(restored.users[0].packets) == 1


def test_behavior_describe_strings():
    from repro.workload.behaviors import (
        BulkDownloadBehavior,
        ForegroundSessionBehavior,
        LingeringForegroundBehavior,
        PostSessionSyncBehavior,
        PushNotificationBehavior,
        StreamingBehavior,
    )

    assert "bulk" in BulkDownloadBehavior(1e6).describe()
    assert "foreground" in ForegroundSessionBehavior().describe()
    assert "lingering" in LingeringForegroundBehavior().describe()
    assert "sync" in PostSessionSyncBehavior().describe()
    assert "push" in PushNotificationBehavior(300.0).describe()
    assert "streaming" in StreamingBehavior(300.0, 1e6).describe()


def test_scripts_compile():
    import py_compile
    from pathlib import Path

    scripts = sorted(
        (Path(__file__).parent.parent / "scripts").glob("*.py")
    )
    assert scripts
    for path in scripts:
        py_compile.compile(str(path), doraise=True)
