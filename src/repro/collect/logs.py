"""Raw device-log writer.

Five line-oriented logs per device, mirroring what the paper's
collection software gathered:

* ``packets.log``  -- one line per captured packet:
  ``<ts> <conn> <U|D> <size>``
* ``sockets.log``  -- the packet→process mapping: one line when a
  connection is first seen: ``<ts> <conn> <app>``
* ``process.log``  -- process-state transitions: ``<ts> <app> <STATE>``
* ``screen.log``   -- ``<ts> <ON|OFF>``
* ``input.log``    -- user input: ``<ts> <app>``

All five are UTF-8 text.

Real collection is imperfect: short-lived connections can slip past the
mapper. ``CollectionConfig.socket_record_loss`` drops that fraction of
socket records, which the parser then buckets as unattributable
traffic — the same situation the paper describes for requests delegated
to system services.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import TraceError
from repro.trace.dataset import Dataset
from repro.trace.events import ProcessState
from repro.trace.packet import Direction
from repro.trace.trace import UserTrace
from repro.workload.rng import substream

PathLike = Union[str, Path]

PACKETS_LOG = "packets.log"
SOCKETS_LOG = "sockets.log"
PROCESS_LOG = "process.log"
SCREEN_LOG = "screen.log"
INPUT_LOG = "input.log"


@dataclass(frozen=True)
class CollectionConfig:
    """Knobs of the simulated collection software."""

    #: Fraction of socket (conn -> app) records lost before logging.
    socket_record_loss: float = 0.0
    #: Seed for the loss process.
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.socket_record_loss < 1.0:
            raise TraceError(
                f"socket_record_loss must be in [0, 1): {self.socket_record_loss}"
            )


def write_device_logs(
    trace: UserTrace,
    registry,
    directory: PathLike,
    config: CollectionConfig = CollectionConfig(),
) -> Path:
    """Write one device's raw logs into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    packets = trace.packets

    with open(directory / PACKETS_LOG, "w", encoding="utf-8") as handle:
        for rec in packets.data:
            direction = "U" if int(rec["direction"]) == int(Direction.UPLINK) else "D"
            handle.write(
                f"{float(rec['timestamp'])!r} {int(rec['conn'])} "
                f"{direction} {int(rec['size'])}\n"
            )

    # Socket records: first packet of each (conn, app), minus losses.
    rng = substream(config.seed, "collect-loss", trace.user_id)
    seen = {}
    for rec in packets.data:
        key = (int(rec["conn"]), int(rec["app"]))
        if key not in seen:
            seen[key] = float(rec["timestamp"])
    with open(directory / SOCKETS_LOG, "w", encoding="utf-8") as handle:
        for (conn, app), first_ts in sorted(seen.items(), key=lambda kv: kv[1]):
            if config.socket_record_loss and rng.random() < config.socket_record_loss:
                continue
            handle.write(f"{first_ts!r} {conn} {registry.name_of(app)}\n")

    with open(directory / PROCESS_LOG, "w", encoding="utf-8") as handle:
        for timestamp, app, state in trace.events.process.tolist():
            handle.write(
                f"{timestamp!r} {registry.name_of(app)} "
                f"{ProcessState(state).name}\n"
            )
    with open(directory / SCREEN_LOG, "w", encoding="utf-8") as handle:
        for timestamp, on in trace.events.screen.tolist():
            handle.write(f"{timestamp!r} {'ON' if on else 'OFF'}\n")
    with open(directory / INPUT_LOG, "w", encoding="utf-8") as handle:
        for timestamp, app in trace.events.input.tolist():
            handle.write(f"{timestamp!r} {registry.name_of(app)}\n")
    return directory


def collect_dataset(
    dataset: Dataset,
    root: PathLike,
    config: CollectionConfig = CollectionConfig(),
) -> Path:
    """Write every user's logs under ``root/user_<id>/``."""
    root = Path(root)
    for trace in dataset:
        write_device_logs(
            trace, dataset.registry, root / f"user_{trace.user_id:03d}", config
        )
    return root
