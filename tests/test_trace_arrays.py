"""PacketArray column store."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.arrays import PacketArray, STATE_UNLABELLED
from repro.trace.packet import Direction, Packet

from conftest import make_packets


def _packets():
    return [
        Packet(1.0, 100, Direction.UPLINK, 1, conn=2),
        Packet(2.0, 200, Direction.DOWNLINK, 2, conn=3),
        Packet(3.0, 300, Direction.DOWNLINK, 1, conn=2),
    ]


def test_roundtrip_object_form():
    arr = PacketArray.from_packets(_packets())
    assert arr.to_packets() == _packets()


def test_empty_array():
    arr = PacketArray()
    assert len(arr) == 0
    assert arr.total_bytes == 0
    assert arr.duration() == 0.0
    assert arr.is_time_sorted()
    assert arr.bytes_by_app() == {}


def test_from_columns_length_mismatch():
    with pytest.raises(TraceError):
        PacketArray.from_columns(
            np.array([1.0, 2.0]),
            np.array([10]),
            np.array([0, 1]),
            np.array([1, 1]),
        )


def test_columns_and_aggregates():
    arr = PacketArray.from_packets(_packets())
    assert arr.total_bytes == 600
    assert arr.bytes_by_app() == {1: 400, 2: 200}
    assert arr.duration() == pytest.approx(2.0)
    assert list(arr.states) == [STATE_UNLABELLED] * 3


def test_sorting():
    arr = make_packets(
        [(5.0, 10, Direction.UPLINK, 1), (1.0, 20, Direction.UPLINK, 1)]
    )
    assert arr.is_time_sorted()
    assert arr.timestamps[0] == 1.0


def test_unsorted_detection():
    data = PacketArray.from_packets(_packets()).data.copy()
    data["timestamp"][0] = 99.0
    assert not PacketArray(data).is_time_sorted()


def test_for_app_and_in_range():
    arr = PacketArray.from_packets(_packets())
    assert len(arr.for_app(1)) == 2
    assert len(arr.in_range(1.5, 2.5)) == 1


def test_select_mask():
    arr = PacketArray.from_packets(_packets())
    picked = arr.select(arr.sizes >= 200)
    assert len(picked) == 2


def test_concat():
    a = PacketArray.from_packets(_packets())
    b = PacketArray.from_packets(_packets())
    merged = PacketArray.concat([a, b])
    assert len(merged) == 6
    assert PacketArray.concat([]).data.shape == (0,)


def test_validate_rejects_bad_direction():
    arr = PacketArray.from_packets(_packets())
    arr.data["direction"][0] = 9
    with pytest.raises(TraceError, match="direction 9 is neither uplink"):
        arr.validate()


def test_validate_rejects_zero_size():
    arr = PacketArray.from_packets(_packets())
    arr.data["size"][0] = 0
    with pytest.raises(TraceError):
        arr.validate()


def test_validate_accepts_good_array():
    PacketArray.from_packets(_packets()).validate()


def test_repr_mentions_counts():
    arr = PacketArray.from_packets(_packets())
    assert "n=3" in repr(arr)
    assert "empty" in repr(PacketArray())


def test_wrong_dtype_rejected():
    with pytest.raises(TraceError):
        PacketArray(np.zeros(3, dtype=np.float64))


def test_iteration_yields_packets():
    arr = PacketArray.from_packets(_packets())
    assert [p.size for p in arr] == [100, 200, 300]
