"""Dataset summary statistics.

A quick structural overview of a study (generated or imported): per-user
traffic volumes, app counts, event counts, and study-wide category
totals. Used by ``repro summary`` and handy as a sanity check before
running the heavier analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.trace.dataset import Dataset
from repro.trace.events import ProcessState
from repro.units import MB


@dataclass(frozen=True)
class UserSummary:
    """One user's trace at a glance."""

    user_id: int
    days: float
    packets: int
    megabytes: float
    apps_with_traffic: int
    process_events: int
    sessions: int  # foreground entries in the event stream
    top_app: str


@dataclass(frozen=True)
class DatasetSummary:
    """Study-wide structural overview."""

    users: Tuple[UserSummary, ...]
    total_apps: int
    apps_with_traffic: int
    category_megabytes: Tuple[Tuple[str, float], ...]

    @property
    def total_packets(self) -> int:
        """Packets across all users."""
        return sum(u.packets for u in self.users)

    @property
    def total_megabytes(self) -> float:
        """Traffic volume across all users, MB."""
        return sum(u.megabytes for u in self.users)


def summarize(dataset: Dataset) -> DatasetSummary:
    """Build the structural summary of a dataset."""
    users: List[UserSummary] = []
    seen_apps = set()
    category_bytes: Dict[str, float] = {}
    for trace in dataset:
        by_app = trace.packets.bytes_by_app()
        seen_apps.update(by_app)
        for app_id, volume in by_app.items():
            category = dataset.registry.by_id(app_id).category
            category_bytes[category] = category_bytes.get(category, 0.0) + volume
        top_app = (
            dataset.registry.name_of(max(by_app, key=lambda a: by_app[a]))
            if by_app
            else "-"
        )
        states = trace.events.process["state"]
        users.append(
            UserSummary(
                user_id=trace.user_id,
                days=trace.duration_days,
                packets=len(trace.packets),
                megabytes=trace.packets.total_bytes / MB,
                apps_with_traffic=len(by_app),
                process_events=len(states),
                sessions=int(np.count_nonzero(states == ProcessState.FOREGROUND)),
                top_app=top_app,
            )
        )
    categories = tuple(
        sorted(
            ((c, v / MB) for c, v in category_bytes.items()),
            key=lambda cv: -cv[1],
        )
    )
    return DatasetSummary(
        users=tuple(users),
        total_apps=len(dataset.registry),
        apps_with_traffic=len(seen_apps),
        category_megabytes=categories,
    )
