"""The long-running follower: poll → attribute → window → publish.

:class:`Follower` turns the batch reproduction into an always-on
monitor. Each loop iteration:

1. **Polls** the tailing source for complete new chunks, respecting a
   bounded pending queue (``max_pending``); the post-poll backlog is
   the ``follow.lag_chunks`` gauge — when attribution falls behind,
   the queue fills and polling stops until it drains (backpressure at
   the source, not unbounded memory).
2. **Attributes** every pending chunk through its user's
   :meth:`UserStreamAccumulator.feed
   <repro.stream.accumulate.UserStreamAccumulator.feed>` — the exact
   streaming radio engine and the whole-stream totals, the same step
   ``repro ingest`` runs — and folds the settled packets into every
   :class:`~repro.follow.WindowRing`.
3. **Advances** windows: the per-user watermarks (last packet seen,
   pending included) define the stream's low-watermark ``t_seal``;
   every bucket wholly before it is *sealed* — its packets can no
   longer change — and each newly sealed bucket is evaluated once, in
   order: headlines out, ring evicted past two window spans,
   live artefacts re-published when (and only when) the fold digest
   moved.
4. **Checkpoints** every ``checkpoint_every`` processed chunks, on
   SIGTERM/SIGINT, and before returning — a regular format-2
   :class:`~repro.stream.StreamCheckpoint` (users ``running``) whose
   *extras* carry the rings, cursors, watermarks and headline state,
   so ``--resume`` reproduces windows and headlines bit-identically.

Evaluation is driven purely by sealed buckets, never by polling
cadence: however the arrivals were chunked or interleaved, every
window is evaluated at the same buckets with the same folds.
"""

from __future__ import annotations

import json
import signal
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.readout import ReadoutProvenance
from repro.durable import write_atomic
from repro.errors import FollowError, ReproError
from repro.follow.headlines import HEADLINE_LOG_LIMIT, HeadlineEngine
from repro.follow.windows import DEFAULT_WINDOWS, WindowRing, WindowSpec
from repro.metrics import RunMetrics
from repro.radio.attribution import TailPolicy
from repro.radio.base import RadioModel
from repro.radio.lte import LTE_DEFAULT
from repro.stream.accumulate import UserStreamAccumulator
from repro.stream.checkpoint import StreamCheckpoint
from repro.store.keys import StoreKey
from repro.store.render import ANALYSIS_KINDS, render_analysis
from repro.trace.arrays import PacketArray

#: The analyses re-published live for every window on each fold change.
#: ``table1`` is absent by design: it needs the cadence tier, which a
#: window fold cannot carry (see ``WindowedTotalsReadout``).
LIVE_ANALYSES = ("fig1", "fig2", "fig3", "headlines", "readout")

#: Name of the live-window manifest inside the store directory.
LIVE_MANIFEST = "live.json"

#: The follow checkpoint extras format (inside ``extra_json``).
FOLLOW_FORMAT = 1


def live_manifest_path(store_directory) -> Path:
    """Where the live-window manifest lives inside a store directory."""
    return Path(store_directory) / LIVE_MANIFEST


class Follower:
    """Tail a source, maintain rolling windows, publish live results.

    Args:
        source: A :class:`~repro.follow.TailCsvSource` or
            :class:`~repro.follow.NpzDropSource`.
        checkpoint_path: Where follow state persists (required — a
            follower without durability is a pipe, not a monitor).
        model / policy: The attribution configuration; checkpoint-bound
            like any ingest.
        windows: The :class:`WindowSpec`\\ s to maintain.
        store: Optional :class:`~repro.store.ResultStore`; when given,
            every window's :data:`LIVE_ANALYSES` are published under a
            fold-digest fingerprint and indexed in ``live.json``.
        emit: Headline sink (default ``print``, flushed).
    """

    def __init__(
        self,
        source,
        *,
        checkpoint_path,
        model: Optional[RadioModel] = None,
        policy: TailPolicy = TailPolicy.SPLIT_ADJACENT,
        windows: Sequence[WindowSpec] = DEFAULT_WINDOWS,
        store=None,
        checkpoint_every: int = 16,
        poll_interval: float = 1.0,
        max_pending: int = 64,
        top_n: int = 5,
        metrics: Optional[RunMetrics] = None,
        emit: Optional[Callable[[str], None]] = None,
    ) -> None:
        if not windows:
            raise FollowError("at least one window is required")
        names = [w.name for w in windows]
        if len(set(names)) != len(names):
            raise FollowError(f"duplicate window names in {names}")
        if checkpoint_every < 1:
            raise FollowError(
                f"checkpoint_every must be >= 1: {checkpoint_every}"
            )
        if max_pending < 1:
            raise FollowError(f"max_pending must be >= 1: {max_pending}")
        self.source = source
        self.checkpoint_path = checkpoint_path
        self.model = model if model is not None else LTE_DEFAULT
        self.policy = policy
        self.store = store
        self.checkpoint_every = int(checkpoint_every)
        self.poll_interval = float(poll_interval)
        self.max_pending = int(max_pending)
        self.top_n = int(top_n)
        self.metrics = metrics if metrics is not None else RunMetrics()
        self._emit = emit if emit is not None else self._print_flush
        self.rings: Dict[str, WindowRing] = {
            spec.name: WindowRing(spec) for spec in windows
        }
        self.engines: Dict[str, HeadlineEngine] = {
            spec.name: HeadlineEngine(spec.name, top_n=self.top_n)
            for spec in windows
        }
        self._accumulators: Dict[int, UserStreamAccumulator] = {}
        self._watermarks: Dict[int, float] = {}
        self._pending: Deque[Tuple[int, PacketArray, dict]] = deque()
        self._cursors: Dict[str, dict] = {}
        self._published: Dict[str, dict] = {}
        self.headline_log: List[str] = []
        self.chunks_done = 0
        self._since_checkpoint = 0
        self._stop = False

    @staticmethod
    def _print_flush(line: str) -> None:
        print(line, flush=True)

    def request_stop(self) -> None:
        """Ask the loop to checkpoint and return (signal-handler safe)."""
        self._stop = True

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(
        self,
        resume: bool = False,
        max_polls: Optional[int] = None,
        idle_exit: Optional[int] = None,
    ) -> str:
        """Follow until stopped; returns why.

        ``"interrupted"`` — SIGTERM/SIGINT (or :meth:`request_stop`);
        the checkpoint is written and ``--resume`` continues exactly.
        ``"stopped"`` — ``max_polls`` loop iterations ran.
        ``"idle"`` — ``idle_exit`` consecutive polls found no new data.
        On any :class:`~repro.errors.ReproError` the checkpoint is
        written first, then the error propagates.
        """
        if resume:
            self._restore()
        handlers = self._install_signal_handlers()
        polls = 0
        idle_streak = 0
        try:
            while True:
                if self._stop:
                    self.save_checkpoint()
                    return "interrupted"
                moved = self._poll_sources()
                self.metrics.gauge("follow.lag_chunks", len(self._pending))
                moved = self._drain() or moved
                self._advance_windows()
                polls += 1
                if self._stop:
                    self.save_checkpoint()
                    return "interrupted"
                if max_polls is not None and polls >= max_polls:
                    self.save_checkpoint()
                    return "stopped"
                if moved:
                    idle_streak = 0
                else:
                    idle_streak += 1
                    if idle_exit is not None and idle_streak >= idle_exit:
                        self.save_checkpoint()
                        return "idle"
                    time.sleep(self.poll_interval)
        except ReproError:
            # A typed failure mid-follow must not cost the windows:
            # persist, then let the CLI map the error to its exit code.
            self.save_checkpoint()
            raise
        finally:
            self._restore_signal_handlers(handlers)

    def _install_signal_handlers(self):
        handlers = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                handlers[signum] = signal.signal(
                    signum, lambda *_: self.request_stop()
                )
            except ValueError:
                # Not the main thread (tests drive run() from a worker
                # thread); request_stop() is the caller's job then.
                pass
        return handlers

    @staticmethod
    def _restore_signal_handlers(handlers) -> None:
        for signum, previous in handlers.items():
            signal.signal(signum, previous)

    # ------------------------------------------------------------------
    # Polling + attribution
    # ------------------------------------------------------------------
    def _poll_sources(self) -> bool:
        """Fill the pending queue up to ``max_pending``; True if it grew."""
        grew = False
        with self.metrics.stage("follow.poll"):
            for uid in self.source.user_ids:
                room = self.max_pending - len(self._pending)
                if room <= 0:
                    break
                for chunk, snapshot in self.source.poll(
                    uid, max_chunks=room
                ):
                    self._pending.append((uid, chunk, snapshot))
                    grew = True
        return grew

    def _drain(self) -> bool:
        """Attribute and window every pending chunk; True if any ran.

        A stop request takes effect between chunks, not after the whole
        backlog: unprocessed chunks are simply dropped — their cursors
        were never adopted, so the resumed tail re-reads them.
        """
        ran = False
        while self._pending and not self._stop:
            uid, chunk, snapshot = self._pending.popleft()
            self._process_chunk(uid, chunk, snapshot)
            ran = True
        return ran

    def _accumulator_for(self, uid: int) -> UserStreamAccumulator:
        if uid not in self._accumulators:
            self._accumulators[uid] = UserStreamAccumulator(
                uid,
                self.source.window(uid),
                self.model,
                self.policy,
                cadence=False,
            )
        return self._accumulators[uid]

    def _process_chunk(
        self, uid: int, chunk: PacketArray, snapshot: dict
    ) -> None:
        acc = self._accumulator_for(uid)
        with self.metrics.stage("follow.attribute"):
            settled = acc.feed(chunk)
            for ring in self.rings.values():
                ring.ingest(
                    uid,
                    settled.timestamps,
                    settled.apps,
                    settled.states,
                    settled.sizes,
                    settled.per_packet,
                )
        self._watermarks[uid] = float(chunk.timestamps[-1])
        self._cursors[str(uid)] = snapshot
        self.chunks_done += 1
        self._since_checkpoint += 1
        self.metrics.count("follow.chunks")
        self.metrics.count("follow.packets", len(chunk))
        if self._since_checkpoint >= self.checkpoint_every:
            self.save_checkpoint()

    # ------------------------------------------------------------------
    # Window advancement
    # ------------------------------------------------------------------
    def seal_time(self) -> float:
        """The stream low-watermark: data before it can still arrive
        for no user, so buckets wholly before it are final."""
        user_ids = self.source.user_ids
        if not user_ids:
            return 0.0
        return min(self._watermarks.get(uid, 0.0) for uid in user_ids)

    def _advance_windows(self) -> None:
        t_seal = self.seal_time()
        for name, ring in self.rings.items():
            sealed_high = int(t_seal // ring.spec.bucket_s) - 1
            if ring.last_evaluated is not None:
                start = ring.last_evaluated + 1
            else:
                present = ring.bucket_ids()
                if not present:
                    continue
                start = present[0]
            evaluated = None
            for bucket in range(start, sealed_high + 1):
                lines = self.engines[name].evaluate(
                    bucket,
                    ring.readout(bucket),
                    ring.readout(bucket - ring.spec.n_buckets),
                    getattr(self.source, "registry", None),
                )
                for line in lines:
                    self._emit(line)
                    if len(self.headline_log) < HEADLINE_LOG_LIMIT:
                        self.headline_log.append(line)
                ring.last_evaluated = bucket
                evaluated = bucket
            if evaluated is not None:
                ring.evict_through(evaluated - 2 * ring.spec.n_buckets)
                self._publish_window(name, ring, evaluated)

    # ------------------------------------------------------------------
    # Live publishing
    # ------------------------------------------------------------------
    def _publish_window(
        self, name: str, ring: WindowRing, bucket: int
    ) -> None:
        if self.store is None:
            return
        digest = ring.fold_digest(bucket)
        previous = self._published.get(name)
        if previous is not None and previous["digest"] == digest:
            return
        fingerprint = f"live:{self.source.signature()}:{name}:{digest}"
        provenance = ReadoutProvenance(
            fingerprint, repr(self.model), self.policy.value
        )
        readout = ring.readout(
            bucket,
            registry=getattr(self.source, "registry", None),
            provenance=provenance,
        )
        with self.metrics.stage("follow.publish"):
            for analysis in LIVE_ANALYSES:
                key = StoreKey(
                    fingerprint,
                    provenance.model,
                    provenance.policy,
                    analysis,
                )
                self.store.put(
                    key,
                    render_analysis(analysis, readout).encode("utf-8"),
                    kind=ANALYSIS_KINDS[analysis],
                )
            start, end = ring.window_bounds(bucket)
            self._published[name] = {
                "fingerprint": fingerprint,
                "digest": digest,
                "sealed_bucket": bucket,
                "span_s": ring.spec.span_s,
                "bucket_s": ring.spec.bucket_s,
                "window_start": start,
                "window_end": end,
            }
            self._write_live_manifest()
            if previous is not None:
                # The manifest no longer references the old generation;
                # reclaim it so the store holds one live fold per window.
                self.store.invalidate(fingerprint=previous["fingerprint"])
        self.metrics.count("follow.published")

    def _write_live_manifest(self) -> None:
        payload = {
            "format": 1,
            "source": self.source.signature(),
            "model": repr(self.model),
            "policy": self.policy.value,
            "analyses": list(LIVE_ANALYSES),
            "windows": {
                name: {
                    key: value
                    for key, value in entry.items()
                    if key != "digest"
                }
                for name, entry in sorted(self._published.items())
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
        write_atomic(
            live_manifest_path(self.store.directory), text.encode("utf-8")
        )

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def save_checkpoint(self) -> None:
        """Persist everything a resume needs, atomically."""
        with self.metrics.stage("follow.checkpoint"):
            extra = {
                "follow_format": FOLLOW_FORMAT,
                "windows": {},
                "watermarks": {
                    str(uid): ts for uid, ts in self._watermarks.items()
                },
                "cursors": self._cursors,
                "headlines": {
                    name: engine.state()
                    for name, engine in self.engines.items()
                },
                "emitted": list(self.headline_log),
                "published": self._published,
                "top_n": self.top_n,
            }
            arrays: Dict[str, np.ndarray] = {}
            for i, (name, ring) in enumerate(sorted(self.rings.items())):
                meta, ring_arrays = ring.payload(f"w{i}")
                meta["prefix"] = f"w{i}"
                extra["windows"][name] = meta
                arrays.update(ring_arrays)
            registry = getattr(self.source, "registry", None)
            checkpoint = StreamCheckpoint(
                self.source.signature(),
                self.model,
                self.policy,
                [
                    self._accumulators[uid].to_checkpoint()
                    for uid in sorted(self._accumulators)
                ],
                chunks_done=self.chunks_done,
                registry_json=(
                    registry.to_json() if registry is not None else None
                ),
                has_cadence=False,
                extra_json=json.dumps(extra),
                extra_arrays=arrays,
            )
            checkpoint.save(self.checkpoint_path)
        self._since_checkpoint = 0
        self.metrics.count("follow.checkpoints")

    def _restore(self) -> None:
        """Load the checkpoint and rewind source + state to it."""
        checkpoint = StreamCheckpoint.load(self.checkpoint_path)
        checkpoint.verify(
            self.source.signature(), self.model, self.policy
        )
        if checkpoint.loaded_from_fallback:
            self.metrics.count("faults.checkpoint_fallback")
        if checkpoint.extra_json is None:
            raise FollowError(
                "checkpoint carries no follow state (it is an ingest "
                "checkpoint); start the follow fresh with a new "
                "--checkpoint path"
            )
        extra = json.loads(checkpoint.extra_json)
        if extra.get("follow_format") != FOLLOW_FORMAT:
            raise FollowError(
                f"follow checkpoint format "
                f"{extra.get('follow_format')!r} is not {FOLLOW_FORMAT}"
            )
        saved_windows = extra["windows"]
        ours = {name: ring.spec for name, ring in self.rings.items()}
        theirs = {
            name: (int(m["span_s"]), int(m["bucket_s"]))
            for name, m in saved_windows.items()
        }
        if {
            name: (spec.span_s, spec.bucket_s)
            for name, spec in ours.items()
        } != theirs:
            raise FollowError(
                f"checkpoint windows {theirs} do not match the "
                "requested windows — rerun with the same --window set "
                "or start a fresh checkpoint"
            )
        for name, meta in saved_windows.items():
            self.rings[name] = WindowRing.from_payload(
                meta, checkpoint.extra_arrays, meta["prefix"]
            )
        self.engines = {
            name: HeadlineEngine.from_state(
                name, state, top_n=int(extra.get("top_n", self.top_n))
            )
            for name, state in extra["headlines"].items()
        }
        self._watermarks = {
            int(uid): float(ts)
            for uid, ts in extra["watermarks"].items()
        }
        self._cursors = dict(extra["cursors"])
        self.headline_log = list(extra["emitted"])
        self._published = dict(extra.get("published", {}))
        self.chunks_done = checkpoint.chunks_done
        for user in checkpoint.users:
            self._accumulators[user.user_id] = (
                UserStreamAccumulator.from_checkpoint(
                    user,
                    self.source.window(user.user_id),
                    self.model,
                    self.policy,
                )
            )
        self.source.restore(self._cursors, checkpoint.registry_json)
