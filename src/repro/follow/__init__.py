"""Live monitoring: follow a growing source, keep rolling windows.

``repro.follow`` turns the batch reproduction into an always-on
monitor. A :class:`Follower` tails a growing source — per-user packets
CSVs appended in place (:class:`TailCsvSource`) or a directory
collecting per-day ``.npz`` drops (:class:`NpzDropSource`) — and runs
every complete chunk through the exact streaming attribution engine,
so whole-stream totals stay bit-identical to a batch run over the same
packets. On top of that it maintains rolling windows
(:class:`WindowRing`; hour/day/week by default), emits streaming
headlines as each window's next bucket seals, and publishes the live
windows to a results store for ``repro serve /live/...``.

The subsystem's core invariant, enforced by the property suite: a
long-lived ring's window fold — through any chunking, eviction history
and checkpoint round-trips — is ``array_equal`` to a fresh ring built
from only that window's packets. See ``docs/MONITORING.md``.
"""

from repro.follow.follower import (
    FOLLOW_FORMAT,
    LIVE_ANALYSES,
    LIVE_MANIFEST,
    Follower,
    live_manifest_path,
)
from repro.follow.headlines import HEADLINE_LOG_LIMIT, HeadlineEngine
from repro.follow.sources import (
    TAIL_READ_LIMIT,
    NpzDropSource,
    TailCsvSource,
    TailSource,
)
from repro.follow.windows import (
    DEFAULT_WINDOWS,
    FOLLOW_WINDOW_END,
    WindowRing,
    WindowSpec,
    parse_window_spec,
)

__all__ = [
    "DEFAULT_WINDOWS",
    "FOLLOW_FORMAT",
    "FOLLOW_WINDOW_END",
    "Follower",
    "HEADLINE_LOG_LIMIT",
    "HeadlineEngine",
    "LIVE_ANALYSES",
    "LIVE_MANIFEST",
    "NpzDropSource",
    "TAIL_READ_LIMIT",
    "TailCsvSource",
    "TailSource",
    "WindowRing",
    "WindowSpec",
    "live_manifest_path",
    "parse_window_spec",
]
