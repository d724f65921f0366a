"""On-disk cache for per-user energy attribution.

Repeated analyses over the same saved study (different figures, report
re-runs, parameter sweeps that only touch the analysis layer) spend
most of their time recomputing the identical attribution. The cache
keys a study by ``(dataset fingerprint, radio model, tail policy)`` and
stores one small ``.npz`` per user holding only the tail-energy array
(the expensive multi-phase part) — packets are never duplicated on
disk, and transfer/promotion energies are recomputed in one cheap pass
on load (see :func:`repro.radio.attribution.result_from_payload`).

Any change to the packets (fingerprint), the model constants (frozen
dataclass repr) or the policy changes the key, so stale entries are
never read — they are simply orphaned and can be deleted wholesale by
removing the cache directory.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.durable import write_atomic
from repro.radio.attribution import TailPolicy
from repro.radio.base import RadioModel
from repro.trace.arrays import PacketArray
from repro.trace.dataset import Dataset


def study_cache_key(
    dataset: Dataset, model: RadioModel, policy: TailPolicy
) -> str:
    """Digest identifying one (dataset, model, policy) attribution."""
    digest = hashlib.blake2b(digest_size=12)
    digest.update(dataset.fingerprint().encode("ascii"))
    digest.update(repr(model).encode("utf-8"))
    digest.update(policy.value.encode("ascii"))
    return digest.hexdigest()


class AttributionCache:
    """Per-user attribution payloads under one study key."""

    def __init__(self, directory: Union[str, Path], key: str) -> None:
        self.directory = Path(directory)
        self.key = key
        self.directory.mkdir(parents=True, exist_ok=True)

    @classmethod
    def for_study(
        cls,
        directory: Union[str, Path],
        dataset: Dataset,
        model: RadioModel,
        policy: TailPolicy,
    ) -> "AttributionCache":
        """Open the cache slot for one study's attribution."""
        return cls(directory, study_cache_key(dataset, model, policy))

    def path_for(self, user_id: int) -> Path:
        """Cache file for one user under this study key."""
        return self.directory / f"attr-{self.key}-u{user_id}.npz"

    def load(
        self, user_id: int, packets: PacketArray
    ) -> Optional[Dict[str, object]]:
        """The stored payload for one user, or ``None`` on any miss.

        A file whose arrays don't match the packet count (a truncated
        write, or a hash collision in principle) is treated as a miss,
        never an error — the caller recomputes and overwrites.
        """
        path = self.path_for(user_id)
        if not path.exists():
            return None
        try:
            with np.load(path) as archive:
                payload = {
                    "tail": archive["tail"],
                    "idle_energy": float(archive["idle_energy"]),
                    "window": tuple(archive["window"]),
                }
        except (OSError, KeyError, ValueError):
            return None
        if len(payload["tail"]) != len(packets):
            return None
        return payload

    def store(self, user_id: int, payload: Dict[str, object]) -> Path:
        """Persist one user's payload; atomic against concurrent readers."""
        return write_atomic(
            self.path_for(user_id),
            lambda handle: np.savez(
                handle,
                tail=payload["tail"],
                idle_energy=np.float64(payload["idle_energy"]),
                window=np.float64(payload["window"]),
            ),
        )
