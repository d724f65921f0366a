"""Durable on-disk artefacts: atomic writes, verified reads, lock elections.

Checkpoints, shard manifests, store blobs, ``live.json`` and saved
datasets all follow one file protocol, and this
is the only module that implements it: :func:`write_atomic` publishes a
complete temp file with one rename (optionally rotating the current
file to ``<name>.prev`` first), :func:`read_verified` falls back to that
rotation when the current file fails to parse, and
:func:`single_flight` elects one runner per ``O_CREAT | O_EXCL`` lock
file; a winner's release wakes the waiters parked in its own process at
once, and waiters in other processes notice it on their next poll.
Nothing is fsynced: the checksums and the ``.prev`` fallback are the
defence against a torn write.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO, Callable, Optional, Tuple, TypeVar, Union

from repro import faults
from repro.errors import ReproError

PathLike = Union[str, Path]
T = TypeVar("T")
_UNTRUSTED = (OSError, ValueError, ReproError)

#: Name suffixes of the rotated generation and of in-flight temp files.
PREV_SUFFIX = ".prev"
TMP_SUFFIX = ".tmp"

#: A lock (or temp file) older than this was abandoned by a crashed
#: owner; the next waiter (or ``ResultStore.gc``) removes it.
LOCK_TIMEOUT_S = 30.0

#: How often a parked :func:`single_flight` caller polls ``ready`` when
#: no release in its own process wakes it first.
POLL_INTERVAL_S = 0.02

#: Notified by every :func:`single_flight` winner after it removes its
#: lock, so waiters parked in this process wake without a poll tick.
_RELEASED = threading.Condition()


def previous_path(path: PathLike) -> Path:
    """Where ``write_atomic(..., keep_prev=True)`` rotates the prior file."""
    path = Path(path)
    return path.with_name(path.name + PREV_SUFFIX)


def write_atomic(
    path: PathLike,
    data: Union[bytes, Callable[[BinaryIO], object]],
    *,
    keep_prev: bool = False,
    site: Optional[str] = None,
) -> Path:
    """Publish ``data`` (bytes, or a writer of the open handle) at ``path``.

    The sibling temp file is named for the writing process and thread,
    so concurrent writers never touch each other's; the last rename
    wins. The fault ``site`` fires on the complete temp file, then
    ``keep_prev`` rotates the current file to :func:`previous_path` (a
    current file that vanished meanwhile is fine) and one rename
    publishes. A failure before that rename removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}{TMP_SUFFIX}"
    )
    try:
        with open(tmp, "wb") as handle:
            if callable(data):
                data(handle)
            else:
                handle.write(data)
        if site is not None:
            faults.fire(site, path=tmp)
        if keep_prev:
            with suppress(FileNotFoundError):
                os.replace(path, previous_path(path))
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise
    return path


def read_verified(
    path: PathLike, parse: Callable[[Path], T]
) -> Tuple[T, bool]:
    """``(parse(path), False)``, else ``(parse(<path>.prev), True)``.

    ``parse`` raises on a file it cannot trust — ``OSError`` (missing,
    unreadable), ``ValueError`` (malformed) or a typed ``ReproError``;
    when both generations fail, the current file's error propagates.
    """
    path = Path(path)
    try:
        return parse(path), False
    except _UNTRUSTED:
        with suppress(*_UNTRUSTED):
            return parse(previous_path(path)), True
        raise  # the current file's error, not the rotation's


def content_checksum(data: bytes) -> str:
    """Digest stored in the store index and verified on every read."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def checksum_file(path: PathLike, chunk_size: int = 1 << 20) -> str:
    """:func:`content_checksum` of a file, streamed in bounded chunks
    (a served shard checkpoint's ETag, never read whole to hash it)."""
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        while True:
            piece = handle.read(chunk_size)
            if not piece:
                break
            digest.update(piece)
    return digest.hexdigest()


def single_flight(
    lock: PathLike,
    run: Callable[[], T],
    ready: Callable[[], Optional[T]],
    on_wait: Optional[Callable[[], None]] = None,
) -> T:
    """``run()`` in the one caller that creates ``lock``; the rest wait.

    A loser calls ``on_wait()``, then returns the first non-``None``
    ``ready()`` it polls: at once when a winner in this process releases
    its lock, otherwise every :data:`POLL_INTERVAL_S`. Once the lock is
    gone — released, or older than :data:`LOCK_TIMEOUT_S` and broken —
    a loser still without a result runs the election again, so a
    crashed winner costs a second run, never a deadlock. The winner
    removes the lock however it ends, then wakes this process's losers.
    """
    lock = Path(lock)
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if on_wait is not None:
                on_wait()
            found = _park(lock, ready)
            if found is not None:
                return found
            continue
        os.close(fd)
        try:
            return run()
        finally:
            with suppress(OSError):
                lock.unlink()
            with _RELEASED:
                _RELEASED.notify_all()


def _park(lock: Path, ready: Callable[[], Optional[T]]) -> Optional[T]:
    """Poll ``ready`` until it answers or ``lock`` is released or stale.

    The lock is checked under :data:`_RELEASED`, and the wait releases
    it, so a release in this process between the check and the wait
    still wakes this caller.
    """
    while True:
        with _RELEASED:
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                age = None
            else:
                if age <= LOCK_TIMEOUT_S:
                    _RELEASED.wait(POLL_INTERVAL_S)
        if age is None:
            return ready()
        if age > LOCK_TIMEOUT_S:
            with suppress(OSError):
                lock.unlink()
            return ready()
        found = ready()
        if found is not None:
            return found
