"""The merger: fold per-shard checkpoints into one study checkpoint.

Per-user totals are computed independently (each user's packets only
ever meet their own accumulator), so sharding by user changes *which
process* computes a user, never *what* is computed. The only study-wide
float fold — :func:`~repro.core.readout.merge_keyed_totals` over users
— happens at **readout** time, in user order. The merge therefore only
has to reassemble the users in the canonical parent-source order the
manifest recorded; every figure rendered from the merged checkpoint is
then ``array_equal`` to the unsharded run's, not merely close.

The merged checkpoint drops the shard header and takes the **parent
source's signature** — exactly what an unsharded ``repro ingest`` over
the same data writes. Its readout's
:class:`~repro.core.readout.ReadoutProvenance` is therefore identical,
so the derived :class:`~repro.store.keys.StoreKey` and ETag are
identical: `repro serve` and the result store cannot tell a sharded
ingest happened.

Refusals are typed and total: any shard missing, mid-run, torn beyond
its ``.prev`` fallback, bound to a different plan, or disagreeing on
registry/model/policy raises :class:`~repro.errors.ShardIncomplete` /
:class:`~repro.errors.ShardError` — a partial or mixed merge is never
produced.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.readout import TotalsReadout, readout_from_loaded_checkpoint
from repro.errors import ShardError, ShardIncomplete, StreamError
from repro.metrics import RunMetrics
from repro.shard.execute import _verify_binding, shard_checkpoint_path
from repro.shard.plan import ShardManifest, shard_signature
from repro.stream.checkpoint import StreamCheckpoint, UserCheckpoint

PathLike = Union[str, Path]


def merge_shard_checkpoints(
    manifest: ShardManifest,
    shard_dir: PathLike,
    *,
    manifest_path: PathLike = "<manifest>",
    metrics: Optional[RunMetrics] = None,
) -> StreamCheckpoint:
    """Fold every shard's checkpoint into one whole-study checkpoint.

    Verifies, per shard: the checkpoint loads (``.prev`` fallback
    allowed only when the fallback generation is itself complete), its
    shard header and signature bind it to exactly this (plan, shard),
    model/policy/cadence match the manifest, and every user is done.
    Across shards: the app registries are identical and the union of
    users is the manifest's exact partition. The result carries the
    parent signature, users in canonical parent order, and no shard
    header — indistinguishable from an unsharded ingest's checkpoint.
    """
    metrics = metrics if metrics is not None else RunMetrics()
    shard_dir = Path(shard_dir)
    with metrics.stage("shard.merge"):
        checkpoints: List[StreamCheckpoint] = []
        incomplete: Dict[int, str] = {}
        for index in range(manifest.n_shards):
            path = shard_checkpoint_path(shard_dir, index)
            try:
                checkpoint = StreamCheckpoint.load(path)
            except StreamError as exc:
                incomplete[index] = f"{exc}"
                continue
            if checkpoint.loaded_from_fallback:
                metrics.count("faults.checkpoint_fallback")
            _verify_binding(checkpoint, manifest, index, path)
            if checkpoint.signature != shard_signature(manifest, index):
                raise ShardError(
                    f"checkpoint {path} was written against a different "
                    "source than the manifest describes"
                )
            if checkpoint.model_repr != manifest.model_repr:
                raise ShardError(
                    f"checkpoint {path} used a different radio model "
                    "than the plan"
                )
            if checkpoint.policy_value != manifest.policy_value:
                raise ShardError(
                    f"checkpoint {path} used tail policy "
                    f"{checkpoint.policy_value!r}, plan pinned "
                    f"{manifest.policy_value!r}"
                )
            not_done = [
                u.user_id for u in checkpoint.users if u.status != "done"
            ]
            if not_done:
                incomplete[index] = (
                    f"{len(not_done)} of {len(checkpoint.users)} users "
                    "not done"
                )
                continue
            # Cadence agreement: an empty shard vacuously reports
            # has_cadence=True, so only non-empty shards can disagree.
            if checkpoint.users and (
                checkpoint.has_cadence != manifest.cadence
            ):
                raise ShardError(
                    f"checkpoint {path} tracked cadence="
                    f"{checkpoint.has_cadence}, plan pinned "
                    f"{manifest.cadence}"
                )
            checkpoints.append(checkpoint)
        if incomplete:
            raise ShardIncomplete(
                str(manifest_path),
                sorted(incomplete),
                "; ".join(
                    f"shard {idx}: {reason}"
                    for idx, reason in sorted(incomplete.items())
                ),
            )
        registries = {
            checkpoint.registry_json
            for checkpoint in checkpoints
            if checkpoint.users
        }
        if len(registries) > 1:
            raise ShardError(
                "shard checkpoints disagree on the app registry; they "
                "cannot come from the same plan execution — re-run the "
                "shards"
            )
        by_id: Dict[int, UserCheckpoint] = {}
        for checkpoint in checkpoints:
            for user in checkpoint.users:
                if user.user_id in by_id:
                    raise ShardError(
                        f"user {user.user_id} appears in more than one "
                        "shard checkpoint"
                    )
                by_id[user.user_id] = user
        if set(by_id) != set(manifest.users):
            missing = sorted(set(manifest.users) - set(by_id))
            extra = sorted(set(by_id) - set(manifest.users))
            raise ShardError(
                "merged users do not match the plan "
                f"(missing {missing}, extra {extra})"
            )
        # The one step that restores bit-identity: users back in
        # canonical parent-source order, the readout's fold order.
        users = [by_id[uid] for uid in manifest.users]
        non_empty = [c for c in checkpoints if c.users]
        merged = StreamCheckpoint(
            manifest.signature,
            manifest.model(),
            manifest.policy(),
            users,
            chunks_done=sum(c.chunks_done for c in checkpoints),
            registry_json=(
                non_empty[0].registry_json if non_empty else None
            ),
            has_cadence=manifest.cadence,
            shard=None,
        )
        if non_empty:
            merged.cadence_flow_gap = non_empty[0].cadence_flow_gap
            merged.cadence_burst_gap = non_empty[0].cadence_burst_gap
        metrics.count("shard.merged", len(checkpoints))
    return merged


def merge_to_checkpoint(
    manifest: ShardManifest,
    shard_dir: PathLike,
    out_path: PathLike,
    *,
    manifest_path: PathLike = "<manifest>",
    metrics: Optional[RunMetrics] = None,
) -> Path:
    """Merge and persist the whole-study checkpoint at ``out_path``.

    The written file is a regular format-2 checkpoint: ``repro figure
    --from-checkpoint``, ``repro serve`` and
    :func:`~repro.core.readout.readout_from_checkpoint` consume it with
    no shard awareness.
    """
    merged = merge_shard_checkpoints(
        manifest,
        shard_dir,
        manifest_path=manifest_path,
        metrics=metrics,
    )
    return merged.save(Path(out_path))


def merged_readout(
    manifest: ShardManifest,
    shard_dir: PathLike,
    *,
    manifest_path: PathLike = "<manifest>",
    metrics: Optional[RunMetrics] = None,
) -> TotalsReadout:
    """Merge in memory and return the study readout directly.

    The readout's provenance triple ``(fingerprint=parent signature,
    model, policy)`` matches an unsharded ingest's, so its
    :class:`~repro.store.keys.StoreKey` is the unsharded key.
    """
    merged = merge_shard_checkpoints(
        manifest,
        shard_dir,
        manifest_path=manifest_path,
        metrics=metrics,
    )
    return readout_from_loaded_checkpoint(merged)
