"""Durable snapshots of an in-flight streaming ingestion.

A :class:`StreamCheckpoint` captures everything
:class:`repro.stream.StreamIngestor` needs to continue after a kill
with *no recomputation*: per user, the packets consumed so far, the
resumable radio state (:class:`~repro.radio.streaming.RadioCarry` — the
pending tail owner and idle accumulators) and the partial per-app /
per-(app, state) / bytes totals, plus the finished users' idle floors.
Float state crosses the file as raw ``float64`` arrays, never text, so
a resumed run performs bit-identical arithmetic.

The file is one ``.npz`` with a JSON header member (the idiom of
:meth:`repro.trace.dataset.Dataset.save`), written atomically through
:func:`repro.durable.write_atomic`. The header binds the checkpoint to
its source (:meth:`CsvStreamSource.signature`), model and policy;
loading against anything else raises
:class:`~repro.errors.StreamError` rather than silently mixing runs.

Torn writes are the failure rename alone cannot cover (a power cut can
leave a short but well-formed-looking file, and a checkpoint that loads
*wrong* is worse than one that fails). Two defences: every save embeds
a content checksum over all members, verified on load; and each save
rotates the previous good file to
:func:`~repro.durable.previous_path`, which :meth:`load` falls back to
when the current file fails verification (``loaded_from_fallback``
tells the caller it happened).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import durable
from repro.core.periodicity import DEFAULT_BURST_GAP
from repro.core.readout import DEFAULT_FLOW_GAP
from repro.errors import StreamError
from repro.keyed import UserTotals
from repro.radio.attribution import TailPolicy
from repro.radio.base import RadioModel
from repro.radio.streaming import carry_defect
from repro.stream.cadence import CADENCE_MEMBERS, cadence_defect

PathLike = Union[str, Path]

#: On-disk layout version. Format 2 added the app registry, per-user
#: observation windows, cadence members, and rekeyed the byte totals
#: from per-app to per-(app, state) — a format-1 file's ``bytes_keys``
#: mean something else entirely, so older files are refused rather
#: than misread.
CHECKPOINT_FORMAT = 2

#: The :meth:`~repro.keyed.UserTotals.arrays` naming of a user's
#: ``totals`` payload (``energy_keys`` ... ``bytes_values``); the file
#: stores each member with a ``_<user id>`` suffix.
TOTALS_NAME = "{member}_{part}"


def _content_digest(arrays: Dict[str, np.ndarray]) -> str:
    """Checksum over every member's name, dtype, shape and bytes."""
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(arr.dtype).encode("utf-8"))
        digest.update(str(arr.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@dataclass
class UserCheckpoint:
    """One user's resumable state inside a checkpoint."""

    user_id: int
    #: ``pending`` (untouched), ``running`` (mid-stream) or ``done``.
    status: str
    #: Packets already consumed — the resume seek offset.
    rows_consumed: int = 0
    #: Radio carry payload (``running`` users only).
    carry: Optional[Dict[str, np.ndarray]] = None
    #: Partial :class:`~repro.keyed.UserTotals` payload, its arrays
    #: named by :data:`TOTALS_NAME`.
    totals: Dict[str, np.ndarray] = field(
        default_factory=lambda: UserTotals().arrays(TOTALS_NAME)
    )
    #: Unattributed idle energy (``done`` users only).
    idle_energy: float = 0.0
    #: Observation window (start, end) seconds.
    window: Optional[Tuple[float, float]] = None
    #: Cadence tracker payload (the
    #: :data:`~repro.stream.cadence.CADENCE_MEMBERS` arrays), when
    #: the run tracked flow/burst cadence.
    cadence: Optional[Dict[str, np.ndarray]] = None


class StreamCheckpoint:
    """Snapshot of a streaming run, bound to (source, model, policy)."""

    #: Set by :meth:`load`: True when the current file failed checksum
    #: verification and this object came from the ``.prev`` rotation.
    loaded_from_fallback: bool = False

    def __init__(
        self,
        signature: str,
        model: RadioModel,
        policy: TailPolicy,
        users: List[UserCheckpoint],
        chunks_done: int = 0,
        *,
        registry_json: Optional[str] = None,
        has_cadence: bool = False,
        cadence_flow_gap: float = DEFAULT_FLOW_GAP,
        cadence_burst_gap: float = DEFAULT_BURST_GAP,
        shard: Optional[Dict[str, Any]] = None,
        extra_json: Optional[str] = None,
        extra_arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.signature = signature
        self.model_repr = repr(model)
        self.policy_value = policy.value
        self.users = users
        self.chunks_done = int(chunks_done)
        #: The study's :class:`~repro.trace.dataset.AppRegistry` as
        #: JSON — what makes a finished checkpoint analysable on its
        #: own (``repro figure --from-checkpoint``).
        self.registry_json = registry_json
        self.has_cadence = bool(has_cadence)
        self.cadence_flow_gap = float(cadence_flow_gap)
        self.cadence_burst_gap = float(cadence_burst_gap)
        #: Shard header when this checkpoint covers one shard of a
        #: sharded plan (``index``/``of``/``manifest``/
        #: ``parent_signature``, see :mod:`repro.shard`); ``None`` for
        #: a whole-study checkpoint. Readout construction refuses shard
        #: checkpoints — merge them first (``repro shard merge``).
        self.shard = dict(shard) if shard is not None else None
        #: Subsystem-private extension state riding on the format-2
        #: machinery: a JSON string in the header plus named arrays
        #: stored as ``x_``-prefixed members (a namespace no core
        #: member uses). ``repro follow`` keeps its window rings and
        #: tail cursors here; readers that do not know the extras
        #: simply never look at them, and the content checksum covers
        #: them like everything else.
        self.extra_json = extra_json
        self.extra_arrays = dict(extra_arrays) if extra_arrays else {}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> Path:
        """Write the checkpoint atomically (tmp + rename)."""
        arrays: Dict[str, np.ndarray] = {}
        header = {
            "format": CHECKPOINT_FORMAT,
            "signature": self.signature,
            "model": self.model_repr,
            "policy": self.policy_value,
            "chunks_done": self.chunks_done,
            "registry": self.registry_json,
            "has_cadence": self.has_cadence,
            "flow_gap": self.cadence_flow_gap,
            "burst_gap": self.cadence_burst_gap,
            "shard": self.shard,
            "extra": self.extra_json,
            "users": [],
        }
        for name, value in self.extra_arrays.items():
            arrays[f"x_{name}"] = np.asarray(value)
        for user in self.users:
            uid = user.user_id
            header["users"].append(
                {
                    "user_id": uid,
                    "status": user.status,
                    "rows_consumed": user.rows_consumed,
                    "has_carry": user.carry is not None,
                    "window": (
                        [float(user.window[0]), float(user.window[1])]
                        if user.window is not None
                        else None
                    ),
                    "has_cadence": user.cadence is not None,
                }
            )
            for name, value in user.totals.items():
                arrays[f"{name}_{uid}"] = value
            arrays[f"idle_{uid}"] = np.float64(user.idle_energy)
            if user.carry is not None:
                for name, value in user.carry.items():
                    arrays[f"carry_{name}_{uid}"] = value
            if user.cadence is not None:
                for name in CADENCE_MEMBERS:
                    arrays[f"cad_{name}_{uid}"] = user.cadence[name]
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        arrays["checksum"] = np.frombuffer(
            _content_digest(arrays).encode("ascii"), dtype=np.uint8
        )
        # Keep one known-good generation: if the final rename lands a
        # torn file, load() falls back to the rotated one.
        return durable.write_atomic(
            path,
            lambda handle: np.savez(handle, **arrays),
            keep_prev=True,
            site="checkpoint.save",
        )

    @classmethod
    def load(cls, path: PathLike) -> "StreamCheckpoint":
        """Read a checkpoint written by :meth:`save`.

        A file that fails to parse, whose content checksum does not
        match, whose keyed totals do not load as a
        :class:`~repro.keyed.UserTotals` (1-D int64 keys, strictly
        increasing, as long as their values and in range: see
        :func:`~repro.keyed.key_defect`), whose radio carry is not a
        saved one (see :func:`~repro.radio.streaming.carry_defect`), or
        whose cadence is not a saved tracker's (see
        :func:`~repro.stream.cadence.cadence_defect`)
        raises :class:`~repro.errors.StreamError` — never a silently
        wrong checkpoint. A torn — or missing, as after a
        crash between :meth:`save`'s two renames — current file falls
        back to the ``.prev`` rotation when that one verifies; the
        returned object then has ``loaded_from_fallback`` set so
        callers can count the event.
        """
        path = Path(path)
        if not (path.exists() or durable.previous_path(path).exists()):
            raise StreamError(f"no checkpoint at {path}")
        checkpoint, from_prev = durable.read_verified(path, cls._load_verified)
        checkpoint.loaded_from_fallback = from_prev
        return checkpoint

    @classmethod
    def _load_verified(cls, path: Path) -> "StreamCheckpoint":
        """Parse + checksum-verify one file; any defect → StreamError."""
        try:
            # np.load is handed an open file, not the path: a path it
            # opens itself stays open when a cut-short zip fails inside
            # NpzFile, until the garbage collector closes it.
            with open(path, "rb") as handle, np.load(handle) as archive:
                members = {name: archive[name] for name in archive.files}
            stored = members.pop("checksum", None)
            if stored is None:
                raise StreamError(
                    f"checkpoint {path} has no content checksum"
                )
            if bytes(stored).decode("ascii") != _content_digest(members):
                raise StreamError(
                    f"checkpoint {path} failed checksum verification "
                    "(torn or corrupt write)"
                )
            header = json.loads(bytes(members["header"]).decode("utf-8"))
            fmt = int(header.get("format", 1))
            if fmt != CHECKPOINT_FORMAT:
                raise StreamError(
                    f"checkpoint {path} is format {fmt}; this version "
                    f"reads format {CHECKPOINT_FORMAT} (byte totals were "
                    "rekeyed per (app, state)) — re-run `repro ingest` "
                    "to regenerate it"
                )
            users = []
            for entry in header["users"]:
                uid = int(entry["user_id"])
                try:
                    totals = UserTotals.from_arrays(
                        members, f"{TOTALS_NAME}_{uid}"
                    )
                except ValueError as exc:
                    raise StreamError(
                        f"checkpoint {path}: member {exc}"
                    ) from None
                carry = None
                if entry["has_carry"]:
                    carry = {
                        name: members[f"carry_{name}_{uid}"]
                        for name in ("floats", "ints", "idle_buffer")
                    }
                    found = carry_defect(carry)
                    if found is not None:
                        raise StreamError(
                            f"checkpoint {path}: member carry_{found[0]}_"
                            f"{uid}: {found[1]}"
                        )
                window = entry.get("window")
                cadence = None
                if entry.get("has_cadence"):
                    cadence = {
                        name: members[f"cad_{name}_{uid}"]
                        for name in CADENCE_MEMBERS
                    }
                    found = cadence_defect(cadence)
                    if found is not None:
                        raise StreamError(
                            f"checkpoint {path}: member cad_{found[0]}_"
                            f"{uid}: {found[1]}"
                        )
                users.append(
                    UserCheckpoint(
                        user_id=uid,
                        status=str(entry["status"]),
                        rows_consumed=int(entry["rows_consumed"]),
                        carry=carry,
                        totals=totals.arrays(TOTALS_NAME),
                        idle_energy=float(members[f"idle_{uid}"]),
                        window=(
                            (float(window[0]), float(window[1]))
                            if window is not None
                            else None
                        ),
                        cadence=cadence,
                    )
                )
        except StreamError:
            raise
        except Exception as exc:
            # A torn zip fails in whatever layer the cut lands on
            # (zipfile, zlib, the npy header parser, json, a missing
            # member); all of them mean the same one thing here.
            raise StreamError(
                f"torn or corrupt checkpoint at {path}: {exc!r}"
            ) from exc
        checkpoint = cls.__new__(cls)
        checkpoint.signature = header["signature"]
        checkpoint.model_repr = header["model"]
        checkpoint.policy_value = header["policy"]
        checkpoint.users = users
        checkpoint.chunks_done = int(header["chunks_done"])
        checkpoint.registry_json = header.get("registry")
        checkpoint.has_cadence = bool(header.get("has_cadence", False))
        checkpoint.cadence_flow_gap = float(
            header.get("flow_gap", DEFAULT_FLOW_GAP)
        )
        checkpoint.cadence_burst_gap = float(
            header.get("burst_gap", DEFAULT_BURST_GAP)
        )
        checkpoint.shard = header.get("shard")
        checkpoint.extra_json = header.get("extra")
        checkpoint.extra_arrays = {
            name[2:]: value
            for name, value in members.items()
            if name.startswith("x_")
        }
        return checkpoint

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def verify(
        self, signature: str, model: RadioModel, policy: TailPolicy
    ) -> None:
        """Refuse to resume against a different source, model or policy."""
        if self.signature != signature:
            raise StreamError(
                "checkpoint was written for a different source "
                f"(checkpoint {self.signature}, source {signature})"
            )
        if self.model_repr != repr(model):
            raise StreamError(
                "checkpoint was written under a different radio model"
            )
        if self.policy_value != policy.value:
            raise StreamError(
                f"checkpoint was written under policy "
                f"{self.policy_value!r}, run requested {policy.value!r}"
            )
