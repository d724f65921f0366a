"""Flow reconstruction.

The paper reports several per-flow metrics (Table 1: J/flow, MB/flow). A
*flow* here is the trace-level analogue of a transport connection: the
packets sharing an ``(app, conn)`` pair, split whenever the connection is
silent for longer than ``gap_timeout`` (TCP connections in the traces are
torn down or NATed out long before that).

Reconstruction is fully vectorised: one lexsort plus boundary detection,
so million-packet traces reconstruct in tens of milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import TraceError
from repro.trace.arrays import PacketArray
from repro.trace.packet import Direction

#: Default flow idle timeout in seconds.
DEFAULT_GAP_TIMEOUT = 60.0


@dataclass(frozen=True)
class Flow:
    """Aggregate view of one reconstructed flow."""

    flow_id: int
    app: int
    conn: int
    start: float
    end: float
    packets: int
    bytes_up: int
    bytes_down: int

    @property
    def total_bytes(self) -> int:
        """Bytes in both directions."""
        return self.bytes_up + self.bytes_down

    @property
    def duration(self) -> float:
        """Seconds between first and last packet of the flow."""
        return self.end - self.start


class FlowTable:
    """All flows of a trace, with per-app lookup."""

    def __init__(self, flows: List[Flow]) -> None:
        self._flows = flows
        self._by_app: Dict[int, List[Flow]] = {}
        for flow in flows:
            self._by_app.setdefault(flow.app, []).append(flow)

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows)

    def __getitem__(self, flow_id: int) -> Flow:
        # Flow ids are dense and 1-based (0 is the "no flow" sentinel).
        if not 1 <= flow_id <= len(self._flows):
            raise KeyError(flow_id)
        return self._flows[flow_id - 1]

    def for_app(self, app: int) -> List[Flow]:
        """Flows belonging to one app."""
        return self._by_app.get(app, [])

    def count_for_app(self, app: int) -> int:
        """Number of flows belonging to one app."""
        return len(self._by_app.get(app, []))


def flow_boundaries(
    packets: PacketArray, gap_timeout: float = DEFAULT_GAP_TIMEOUT
) -> Tuple[np.ndarray, np.ndarray]:
    """The flow rule: ``(order, new_flow)``.

    ``order`` sorts the packets by (app, conn, time); ``new_flow[i]``
    is true where the ``i``-th packet in that order starts a flow: at
    an app or conn change, or after a silence longer than
    ``gap_timeout``. Packets must be time-sorted.
    """
    if gap_timeout <= 0:
        raise TraceError(f"gap_timeout must be positive, got {gap_timeout}")
    if not packets.is_time_sorted():
        raise TraceError("packets must be time-sorted before flow reconstruction")
    ts = packets.timestamps
    apps = packets.apps.astype(np.int64)
    conns = packets.conns.astype(np.int64)
    # Group by (app, conn) then time; within the stable sort the packets
    # of each connection remain chronological.
    order = np.lexsort((ts, conns, apps))
    s_apps = apps[order]
    s_conns = conns[order]
    s_ts = ts[order]
    new_flow = np.empty(len(order), dtype=bool)
    new_flow[:1] = True
    new_flow[1:] = (
        (s_apps[1:] != s_apps[:-1])
        | (s_conns[1:] != s_conns[:-1])
        | ((s_ts[1:] - s_ts[:-1]) > gap_timeout)
    )
    return order, new_flow


def count_flows(
    packets: PacketArray, gap_timeout: float = DEFAULT_GAP_TIMEOUT
) -> int:
    """``len(reconstruct_flows(packets, gap_timeout))``, without
    building the flows or writing the ``flow`` column."""
    return int(np.count_nonzero(flow_boundaries(packets, gap_timeout)[1]))


def reconstruct_flows(
    packets: PacketArray,
    gap_timeout: float = DEFAULT_GAP_TIMEOUT,
) -> FlowTable:
    """Assign flow ids to ``packets`` (in place) and return the table.

    Packets must be time-sorted. Flow ids are dense, 1-based, and
    ordered by each flow's first packet in the sorted-by-(app, conn)
    ordering.
    """
    order, new_flow = flow_boundaries(packets, gap_timeout)
    n = len(order)
    if n == 0:
        return FlowTable([])

    flow_ids = np.empty(n, dtype=np.uint32)
    flow_ids[order] = np.cumsum(new_flow)  # 1-based dense ids
    packets.data["flow"] = flow_ids

    starts = np.flatnonzero(new_flow)
    first = order[starts]
    last = order[np.append(starts[1:], n) - 1]
    s_sizes = packets.sizes.astype(np.int64)[order]
    s_dirs = packets.directions[order]
    up_sizes = np.where(s_dirs == int(Direction.UPLINK), s_sizes, 0)
    down_sizes = np.where(s_dirs == int(Direction.DOWNLINK), s_sizes, 0)
    ts = packets.timestamps
    columns = zip(
        packets.apps[first].tolist(),
        packets.conns[first].tolist(),
        ts[first].tolist(),
        ts[last].tolist(),
        np.diff(np.append(starts, n)).tolist(),
        np.add.reduceat(up_sizes, starts).tolist(),
        np.add.reduceat(down_sizes, starts).tolist(),
    )
    flows = [Flow(flow_id, *flow) for flow_id, flow in enumerate(columns, start=1)]
    return FlowTable(flows)
