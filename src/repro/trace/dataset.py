"""Multi-user datasets and the app registry, with on-disk persistence.

The paper's study is 20 users over 623 days with 342 unique apps; a
:class:`Dataset` holds the per-user traces plus one shared
:class:`AppRegistry` mapping numeric app ids to package-style names and
categories (packets are labelled with app ids derived from the Android
package name, exactly as in the paper's collection pipeline).

Persistence uses one compressed ``.npz`` per dataset: packet tables and
event streams are stored as arrays, the registry and metadata as JSON
embedded in the archive. No external serialisation dependency is needed.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.durable import write_atomic
from repro.errors import TraceError
from repro.trace.arrays import PACKET_DTYPE, PacketArray, packet_defect
from repro.trace.events import EventLog
from repro.trace.trace import UserTrace


@dataclass(frozen=True)
class AppInfo:
    """Static description of one app."""

    app_id: int
    name: str
    category: str

    def __str__(self) -> str:
        return self.name


class AppRegistry:
    """Bidirectional app id <-> name mapping shared across users."""

    def __init__(self, apps: Iterable[AppInfo] = ()) -> None:
        self._by_id: Dict[int, AppInfo] = {}
        self._by_name: Dict[str, AppInfo] = {}
        for app in apps:
            self.add(app)

    def add(self, app: AppInfo) -> AppInfo:
        """Register an app; id and name must both be unused."""
        if app.app_id in self._by_id:
            raise TraceError(f"duplicate app id {app.app_id}")
        if app.name in self._by_name:
            raise TraceError(f"duplicate app name {app.name!r}")
        self._by_id[app.app_id] = app
        self._by_name[app.name] = app
        return app

    def register(self, name: str, category: str = "other") -> AppInfo:
        """Register a new app under the next free id."""
        next_id = max(self._by_id, default=0) + 1
        return self.add(AppInfo(next_id, name, category))

    def by_id(self, app_id: int) -> AppInfo:
        """Look an app up by numeric id."""
        try:
            return self._by_id[app_id]
        except KeyError:
            raise TraceError(f"unknown app id {app_id}") from None

    def by_name(self, name: str) -> AppInfo:
        """Look an app up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise TraceError(f"unknown app name {name!r}") from None

    def id_of(self, name: str) -> int:
        """Numeric id of the app called ``name``."""
        return self.by_name(name).app_id

    def name_of(self, app_id: int) -> str:
        """Name of the app with id ``app_id``."""
        return self.by_id(app_id).name

    def __contains__(self, name: object) -> bool:
        if isinstance(name, int):
            return name in self._by_id
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[AppInfo]:
        return iter(sorted(self._by_id.values(), key=lambda a: a.app_id))

    def in_category(self, category: str) -> List[AppInfo]:
        """All registered apps of one category."""
        return [a for a in self if a.category == category]

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(
            [
                {"app_id": a.app_id, "name": a.name, "category": a.category}
                for a in self
            ]
        )

    @classmethod
    def from_json(cls, payload: str) -> "AppRegistry":
        """Deserialise from :meth:`to_json` output."""
        return cls(
            AppInfo(item["app_id"], item["name"], item["category"])
            for item in json.loads(payload)
        )


class Dataset:
    """A complete study: many user traces plus the shared app registry."""

    def __init__(
        self,
        registry: AppRegistry,
        users: Iterable[UserTrace] = (),
        metadata: Optional[dict] = None,
    ) -> None:
        self.registry = registry
        self.users: List[UserTrace] = list(users)
        self.metadata = dict(metadata or {})
        self._fingerprint: Optional[str] = None

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[UserTrace]:
        return iter(self.users)

    def user(self, user_id: int) -> UserTrace:
        """Trace of one user."""
        for trace in self.users:
            if trace.user_id == user_id:
                return trace
        raise TraceError(f"unknown user id {user_id}")

    def index_for(self, user_id: int, metrics=None):
        """One user's shared :class:`~repro.trace.index.TraceIndex`."""
        return self.user(user_id).index(metrics=metrics)

    @property
    def total_packets(self) -> int:
        """Total packet count across all users."""
        return sum(len(u.packets) for u in self.users)

    @property
    def total_bytes(self) -> int:
        """Total traffic volume across all users."""
        return sum(u.packets.total_bytes for u in self.users)

    def append_user(self, trace: UserTrace) -> UserTrace:
        """Add one user trace, invalidating the cached fingerprint.

        Mutating ``self.users`` directly would leave a previously
        computed :meth:`fingerprint` stale — and a stale fingerprint
        poisons the store key built on it (the results store would
        happily serve another dataset's artefacts). Use this instead of
        ``users.append``.
        """
        if any(t.user_id == trace.user_id for t in self.users):
            raise TraceError(f"duplicate user id {trace.user_id}")
        self.users.append(trace)
        self._fingerprint = None
        return trace

    def extend(self, traces: Iterable[UserTrace]) -> "Dataset":
        """Append many user traces via :meth:`append_user`."""
        for trace in traces:
            self.append_user(trace)
        return self

    def label_states(self) -> None:
        """Label every user's packets with process states."""
        for trace in self.users:
            trace.label_states()
        self._fingerprint = None

    def validate(self) -> None:
        """Validate every trace and cross-check app ids against registry."""
        for trace in self.users:
            trace.validate()
            for app_id in trace.app_ids():
                self.registry.by_id(app_id)

    def fingerprint(self) -> str:
        """Stable content digest of the study's packet timelines.

        Hashes every user's id, window and full packet records (all
        columns, so relabelling flows or states also changes the
        digest). Two datasets with equal fingerprints attribute
        identically under any fixed (model, policy) — this is the
        dataset component of the results store's
        :class:`~repro.store.keys.StoreKey`.

        The digest is cached; :meth:`append_user`, :meth:`extend` and
        :meth:`label_states` invalidate it.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        digest = hashlib.blake2b(digest_size=16)
        for trace in self.users:
            digest.update(np.int64(trace.user_id).tobytes())
            digest.update(np.float64([trace.start, trace.end]).tobytes())
            digest.update(np.ascontiguousarray(trace.packets.data).tobytes())
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the dataset atomically to a compressed ``.npz`` archive
        (``.npz`` is appended to any other path, as numpy does)."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        arrays: Dict[str, np.ndarray] = {}
        header = {
            "metadata": self.metadata,
            "registry": json.loads(self.registry.to_json()),
            "users": [],
        }
        for trace in self.users:
            uid = trace.user_id
            header["users"].append(
                {"user_id": uid, "start": trace.start, "end": trace.end}
            )
            arrays[f"packets_{uid}"] = trace.packets.data
            arrays[f"proc_{uid}"] = trace.events.process
            arrays[f"screen_{uid}"] = trace.events.screen
            arrays[f"input_{uid}"] = trace.events.input
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        return write_atomic(
            path, lambda handle: np.savez_compressed(handle, **arrays)
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Dataset":
        """Load a dataset written by :meth:`save`.

        Raises :class:`TraceError` naming the file, and the member at
        fault if there is one, when the file is not such an archive:
        not a zip or truncated, a member missing or of another dtype, a
        header that is not the JSON :meth:`save` writes, a non-finite
        timestamp, a process state that is not a
        :class:`~repro.trace.events.ProcessState` (or, for a packet's
        state label, unlabelled) or a screen value other than 0 or 1. A
        missing file raises ``FileNotFoundError``.
        """
        path = Path(path)
        with _open_archive(path) as archive:
            registry, entries, metadata = _read_header(archive, path)
            users = []
            for uid, start, end in entries:
                data, *streams = [
                    _member(archive, path, f"{kind}_{uid}")
                    for kind in ("packets", "proc", "screen", "input")
                ]
                try:
                    if data.ndim != 1 or data.dtype != PACKET_DTYPE:
                        raise TraceError(
                            f"packets: expected dtype {PACKET_DTYPE}, "
                            f"got {data.dtype}"
                        )
                    defect = packet_defect(data)
                    if defect is not None:
                        raise TraceError(f"packets: {defect}")
                    events = EventLog.from_arrays(*streams)
                except TraceError as exc:
                    raise TraceError(f"{path.name}: user {uid}: {exc}") from None
                users.append(
                    UserTrace(uid, start, end, PacketArray(data), events)
                )
        return cls(registry, users, metadata)

    def __repr__(self) -> str:
        return (
            f"Dataset(users={len(self.users)}, apps={len(self.registry)}, "
            f"packets={self.total_packets})"
        )


@contextmanager
def _open_archive(path: Path) -> Iterator[np.lib.npyio.NpzFile]:
    """A saved dataset's archive, open for the ``with`` block:
    :class:`TraceError` naming the file when it is not a zip of arrays
    (not a zip, cut short). The file is opened here, not by
    ``np.load``, so it is closed on every exit: ``np.load`` keeps a file
    it opened itself when a cut-short zip fails inside ``NpzFile``."""
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise TraceError(f"{path.name}: not a dataset: {exc}") from None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise TraceError(f"{path.name}: not a dataset: a bare array")
        with archive:
            yield archive


def _member(
    archive: np.lib.npyio.NpzFile, path: Path, name: str
) -> np.ndarray:
    """One member of an open archive: :class:`TraceError` naming the
    file and the member when it is missing or damaged."""
    try:
        return archive[name]
    except KeyError:
        raise TraceError(f"{path.name}: no member {name!r}") from None
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise TraceError(f"{path.name}: {name}: {exc}") from None


def _read_header(
    archive: np.lib.npyio.NpzFile, path: Path
) -> Tuple[AppRegistry, List[Tuple[int, float, float]], dict]:
    """What the JSON header member of an archive :meth:`Dataset.save`
    wrote holds: the registry, each user's ``(user_id, start, end)`` as
    an ``int`` and two finite ``float`` times with ``start <= end``, and
    the metadata. :class:`TraceError` naming the file when the header is
    missing or is not that JSON, and the user too when an entry is not
    so typed. Both dataset readers — :meth:`Dataset.load` and
    :class:`repro.stream.NpzStreamSource` — read it here."""
    try:
        raw = bytes(_member(archive, path, "header"))
        header = json.loads(raw.decode("utf-8"))
        registry = AppRegistry.from_json(json.dumps(header["registry"]))
        entries = [
            (entry["user_id"], entry["start"], entry["end"])
            for entry in header["users"]
        ]
        metadata = dict(header["metadata"])
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceError(f"{path.name}: header: {exc!r}") from None
    return registry, [_user_window(path, *entry) for entry in entries], metadata


def _user_window(path: Path, uid, start, end) -> Tuple[int, float, float]:
    """One header user entry as ``(int, float, float)``:
    :class:`TraceError` naming the file and the user unless its id is an
    integer and its times are finite with ``start <= end``."""
    try:
        window = int(uid), float(start), float(end)
        typed = all(map(math.isfinite, window[1:])) and window[1] <= window[2]
    except (TypeError, ValueError, OverflowError):
        typed = False
    if not typed:
        raise TraceError(
            f"{path.name}: header: user {uid!r}: want an integer id and finite "
            f"times start <= end, got ({uid!r}, {start!r}, {end!r})"
        )
    return window

