"""The planner: partition a study's users into deterministic shards.

A sharded ingest starts from a **manifest**: one JSON file that pins
everything the executors and the merger must agree on — the source
spec (enough to rebuild the chunk source in any process), the parent
source signature, the radio model and tail policy, cadence tracking,
and the explicit per-shard user lists. Users are assigned by
:func:`shard_of`, a stable (salt-free) hash of the user id, so the
same study always plans to the same shards on any host or Python
process; the manifest persists the resulting lists verbatim so a plan
survives even a later change of hash.

The manifest is written atomically (tmp + rename) with an embedded
content digest; a torn write — exercised by the ``shard.manifest``
fault site — is detected on load and raises
:class:`~repro.errors.ShardError`, never a half-read plan.

:class:`ShardSource` adapts one shard of the plan back into the
:class:`~repro.stream.chunks.StreamSource` shape: it restricts the
parent source's users to the shard's list (in parent order) while
delegating all data access, and derives a per-shard signature from the
manifest alone — so shard checkpoints bind to their exact (plan,
shard) and the merger can verify them without touching the data files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.durable import write_atomic
from repro.errors import ShardError
from repro.radio.attribution import TailPolicy
from repro.radio.base import RadioModel
from repro.radio.registry import get_model
from repro.stream.chunks import (
    CsvStreamSource,
    NpzStreamSource,
    StreamSource,
)

PathLike = Union[str, Path]

#: Manifest on-disk layout version.
MANIFEST_FORMAT = 1


def shard_of(user_id: int, n_shards: int) -> int:
    """Stable shard assignment of one user id.

    A keyed-nothing ``blake2b`` over the decimal id — *not* Python's
    builtin ``hash``, which is salted per process and would scatter the
    same user to different shards across runs. Deterministic across
    hosts, processes and Python versions.
    """
    if n_shards < 1:
        raise ShardError(f"n_shards must be >= 1: {n_shards}")
    digest = hashlib.blake2b(
        str(int(user_id)).encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_shards


def plan_shards(user_ids: Sequence[int], n_shards: int) -> List[List[int]]:
    """Partition ``user_ids`` into ``n_shards`` lists via :func:`shard_of`.

    Each shard's users stay in parent-source order, so a shard ingests
    (and checkpoints) users in the same relative order the unsharded
    run would. Shards can legitimately come out empty on tiny studies.
    """
    shards: List[List[int]] = [[] for _ in range(int(n_shards))]
    for uid in user_ids:
        shards[shard_of(uid, n_shards)].append(int(uid))
    return shards


def source_spec(source: StreamSource) -> Dict[str, Any]:
    """A JSON-plain description that :func:`build_source` can rebuild."""
    if isinstance(source, NpzStreamSource):
        return {
            "kind": "npz",
            "path": str(source.path),
            "chunk_size": source.chunk_size,
        }
    if isinstance(source, CsvStreamSource):
        return {
            "kind": "csv",
            "files": [
                [str(p), str(e) if e is not None else None]
                for p, e in source._files
            ],
            "chunk_size": source.chunk_size,
            "duration": source.duration,
            "quarantine_rows": source._quarantine_rows,
        }
    raise ShardError(
        f"cannot describe source of type {type(source).__name__} "
        "in a shard manifest"
    )


def build_source(spec: Dict[str, Any]) -> StreamSource:
    """Rebuild the parent chunk source from its manifest spec."""
    kind = spec.get("kind")
    if kind == "npz":
        return NpzStreamSource(spec["path"], chunk_size=int(spec["chunk_size"]))
    if kind == "csv":
        return CsvStreamSource(
            [(p, e) for p, e in spec["files"]],
            chunk_size=int(spec["chunk_size"]),
            duration=spec["duration"],
            quarantine_rows=bool(spec.get("quarantine_rows", False)),
        )
    raise ShardError(f"unknown source kind in manifest: {kind!r}")


class ShardManifest:
    """One sharded-ingest plan, persisted as a checksummed JSON file."""

    def __init__(
        self,
        source_spec: Dict[str, Any],
        signature: str,
        model_name: str,
        model_repr: str,
        policy_value: str,
        cadence: bool,
        users: Sequence[int],
        shards: Sequence[Sequence[int]],
    ) -> None:
        self.source_spec = dict(source_spec)
        #: The parent source's signature — also the merged checkpoint's
        #: signature, which is what makes the merge key-identical to an
        #: unsharded ingest.
        self.signature = signature
        self.model_name = model_name
        self.model_repr = model_repr
        self.policy_value = policy_value
        self.cadence = bool(cadence)
        #: All user ids in canonical parent-source order — the fold
        #: order the merger restores.
        self.users = [int(u) for u in users]
        self.shards = [[int(u) for u in shard] for shard in shards]
        self._validate_partition()

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def _validate_partition(self) -> None:
        """The shards must be an exact partition of the users."""
        seen: Dict[int, int] = {}
        for index, shard in enumerate(self.shards):
            for uid in shard:
                if uid in seen:
                    raise ShardError(
                        f"user {uid} assigned to both shard {seen[uid]} "
                        f"and shard {index}"
                    )
                seen[uid] = index
        if set(seen) != set(self.users):
            missing = sorted(set(self.users) - set(seen))
            extra = sorted(set(seen) - set(self.users))
            raise ShardError(
                "shards are not an exact partition of the users "
                f"(missing {missing}, extra {extra})"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def plan(
        cls,
        source: StreamSource,
        n_shards: int,
        *,
        model_name: str = "lte",
        policy: TailPolicy = TailPolicy.LAST_PACKET,
        cadence: bool = True,
        shards: Optional[Sequence[Sequence[int]]] = None,
    ) -> "ShardManifest":
        """Plan a sharded ingest of ``source`` into ``n_shards`` shards.

        ``shards`` overrides the :func:`shard_of` assignment with an
        explicit partition (the property tests ingest random uneven
        ones); it must still exactly partition the source's users.
        """
        users = list(source.user_ids)
        if shards is None:
            shards = plan_shards(users, n_shards)
        model = get_model(model_name)
        return cls(
            source_spec=source_spec(source),
            signature=source.signature(),
            model_name=model_name,
            model_repr=repr(model),
            policy_value=policy.value,
            cadence=cadence,
            users=users,
            shards=shards,
        )

    # ------------------------------------------------------------------
    # Guarded accessors
    # ------------------------------------------------------------------
    def model(self) -> RadioModel:
        """Rebuild the pinned radio model, guarding against drift.

        The manifest stores both the registry name and the full repr;
        if the registry's constants have changed since the plan was
        written, executing it would silently mix model generations —
        refuse instead.
        """
        model = get_model(self.model_name)
        if repr(model) != self.model_repr:
            raise ShardError(
                f"model {self.model_name!r} no longer matches the plan "
                f"(manifest {self.model_repr}, registry {repr(model)}); "
                "re-plan with `repro shard plan`"
            )
        return model

    def policy(self) -> TailPolicy:
        return TailPolicy(self.policy_value)

    def shard_users(self, index: int) -> List[int]:
        if not 0 <= index < self.n_shards:
            raise ShardError(
                f"shard index {index} out of range (plan has "
                f"{self.n_shards} shards)"
            )
        return list(self.shards[index])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _body(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "kind": "shard-manifest",
            "source": self.source_spec,
            "signature": self.signature,
            "model_name": self.model_name,
            "model_repr": self.model_repr,
            "policy": self.policy_value,
            "cadence": self.cadence,
            "users": self.users,
            "shards": self.shards,
        }

    def digest(self) -> str:
        """Content digest over the canonical body — the plan's identity.

        Stamped into every shard checkpoint header, so a checkpoint can
        never be merged under a different plan than the one that
        produced it (even one with the same source and shard count but
        a different partition).
        """
        payload = json.dumps(self._body(), sort_keys=True)
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=12
        ).hexdigest()

    def save(self, path: PathLike) -> Path:
        """Write the manifest atomically (tmp + rename) with a digest."""
        text = json.dumps(self.document(), indent=2) + "\n"
        return write_atomic(
            path, text.encode("utf-8"), site="shard.manifest"
        )

    def document(self) -> Dict[str, Any]:
        """The full persisted form: the body plus its content digest.

        What :meth:`save` writes and what an ``HttpTransport`` POST
        ships to a ``repro shard worker`` — :meth:`from_document` on
        the other side verifies and reconstructs it.
        """
        document = dict(self._body())
        document["digest"] = self.digest()
        return document

    @classmethod
    def from_document(
        cls, document: Any, origin: str = "manifest document"
    ) -> "ShardManifest":
        """Verify + reconstruct a manifest from its persisted form.

        The single gate every untrusted manifest passes through — a
        file read by :meth:`load` or a JSON body uploaded to a shard
        worker. Wrong kind, format drift, missing fields and a digest
        mismatch all raise :class:`~repro.errors.ShardError` naming
        ``origin``, so a torn or foreign plan can never execute.
        """
        if not isinstance(document, dict) or document.get(
            "kind"
        ) != "shard-manifest":
            raise ShardError(f"{origin} is not a shard manifest")
        fmt = int(document.get("format", 0))
        if fmt != MANIFEST_FORMAT:
            raise ShardError(
                f"shard manifest {origin} is format {fmt}; this version "
                f"reads format {MANIFEST_FORMAT} — re-plan with "
                "`repro shard plan`"
            )
        stored = document.get("digest")
        try:
            manifest = cls(
                source_spec=document["source"],
                signature=document["signature"],
                model_name=document["model_name"],
                model_repr=document["model_repr"],
                policy_value=document["policy"],
                cadence=document["cadence"],
                users=document["users"],
                shards=document["shards"],
            )
        except KeyError as exc:
            raise ShardError(
                f"torn or corrupt shard manifest {origin}: "
                f"missing {exc}"
            ) from exc
        if stored != manifest.digest():
            raise ShardError(
                f"shard manifest {origin} failed digest verification "
                "(torn or corrupt write)"
            )
        return manifest

    @classmethod
    def load(cls, path: PathLike) -> "ShardManifest":
        """Read a manifest; torn or tampered files raise ShardError."""
        path = Path(path)
        if not path.exists():
            raise ShardError(f"no shard manifest at {path}")
        try:
            document = json.loads(path.read_text())
        except (ValueError, UnicodeDecodeError) as exc:
            raise ShardError(
                f"torn or corrupt shard manifest at {path}: {exc!r}"
            ) from exc
        return cls.from_document(document, origin=f"at {path}")

    def __repr__(self) -> str:
        sizes = [len(shard) for shard in self.shards]
        return (
            f"ShardManifest({self.source_spec.get('kind')}, "
            f"{len(self.users)} users, shards={sizes}, "
            f"model={self.model_name!r}, policy={self.policy_value!r})"
        )


def shard_signature(manifest: ShardManifest, index: int) -> str:
    """The signature of shard ``index``'s checkpoint under ``manifest``.

    Derived from the manifest alone — parent signature, plan digest,
    shard index/count and the shard's user list — so the merger can
    verify a shard checkpoint's binding without rebuilding the source.
    :meth:`ShardSource.signature` returns exactly this.
    """
    payload = json.dumps(
        {
            "kind": "shard",
            "parent": manifest.signature,
            "manifest": manifest.digest(),
            "index": int(index),
            "of": manifest.n_shards,
            "users": manifest.shard_users(index),
        }
    )
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=12
    ).hexdigest()


def shard_header(manifest: ShardManifest, index: int) -> Dict[str, Any]:
    """The ``shard`` header stamped into a shard's checkpoints."""
    return {
        "index": int(index),
        "of": manifest.n_shards,
        "manifest": manifest.digest(),
        "parent_signature": manifest.signature,
    }


class ShardSource:
    """One shard of a plan, shaped like a ``StreamSource``.

    Restricts the parent source's user set to the shard's list (kept
    in parent order by the planner) and delegates every data access —
    registry, windows, packet counts, chunk iteration — to the parent,
    and reports only its own users' share of the parent's quarantined
    rows. The registry is the *whole study's* registry (the
    CSV prepass registers apps across all users, the npz header stores
    them all), which is what lets per-shard checkpoints merge into one
    readout with consistent app ids.
    """

    def __init__(
        self,
        parent: StreamSource,
        manifest: ShardManifest,
        index: int,
    ) -> None:
        if parent.signature() != manifest.signature:
            raise ShardError(
                "source does not match the shard manifest (source "
                f"{parent.signature()}, manifest {manifest.signature}); "
                "the files changed since the plan was written — re-plan"
            )
        self.parent = parent
        self.manifest = manifest
        self.index = int(index)
        self._users = manifest.shard_users(index)
        known = set(parent.user_ids)
        unknown = [u for u in self._users if u not in known]
        if unknown:
            raise ShardError(
                f"manifest shard {index} names users {unknown} that the "
                "source does not have"
            )
        self.registry = parent.registry
        # Every shard rebuilds the whole parent prepass; only its own
        # users' dropped rows are its to report.
        self.quarantine = parent.quarantine.for_users(self._users)

    @property
    def user_ids(self) -> List[int]:
        return list(self._users)

    def window(self, user_id: int) -> Tuple[float, float]:
        return self.parent.window(user_id)

    def n_packets(self, user_id: int) -> int:
        return self.parent.n_packets(user_id)

    def iter_chunks(self, user_id: int, skip: int = 0):
        return self.parent.iter_chunks(user_id, skip=skip)

    def signature(self) -> str:
        return shard_signature(self.manifest, self.index)
