"""Packet-trace data model.

This package is the bottom substrate of the library: it defines packets,
the numpy-backed :class:`~repro.trace.arrays.PacketArray`, process-state /
screen / input event streams, flow reconstruction, per-user traces and the
multi-user :class:`~repro.trace.dataset.Dataset` that the rest of the
library consumes.
"""

from repro.trace.packet import Direction, Packet
from repro.trace.events import (
    EventLog,
    ProcessState,
    ProcessStateEvent,
    ScreenEvent,
    UserInputEvent,
    BACKGROUND_STATES,
    FOREGROUND_STATES,
    background_state_values,
    foreground_state_values,
)
from repro.trace.arrays import PacketArray
from repro.trace.index import TraceIndex
from repro.trace.flow import Flow, FlowTable, reconstruct_flows
from repro.trace.intervals import (
    StateInterval,
    app_state_intervals,
    background_transitions,
    label_packet_states,
)
from repro.trace.trace import UserTrace
from repro.trace.dataset import AppInfo, AppRegistry, Dataset
from repro.trace.summary import DatasetSummary, UserSummary, summarize
from repro.trace.io_text import (
    PacketBlock,
    dataset_from_csv,
    iter_event_rows,
    iter_packet_blocks,
    iter_packet_rows,
    read_events_csv,
    read_packets_csv,
    write_events_csv,
    write_packets_csv,
)

__all__ = [
    "AppInfo",
    "AppRegistry",
    "BACKGROUND_STATES",
    "Dataset",
    "Direction",
    "EventLog",
    "Flow",
    "FlowTable",
    "FOREGROUND_STATES",
    "Packet",
    "PacketArray",
    "ProcessState",
    "ProcessStateEvent",
    "ScreenEvent",
    "StateInterval",
    "UserInputEvent",
    "UserTrace",
    "app_state_intervals",
    "dataset_from_csv",
    "iter_event_rows",
    "iter_packet_blocks",
    "iter_packet_rows",
    "PacketBlock",
    "read_events_csv",
    "read_packets_csv",
    "write_events_csv",
    "write_packets_csv",
    "DatasetSummary",
    "UserSummary",
    "summarize",
    "background_transitions",
    "label_packet_states",
    "reconstruct_flows",
    "TraceIndex",
    "background_state_values",
    "foreground_state_values",
]
