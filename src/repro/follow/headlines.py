"""Streaming headlines: what changed in the window that just sealed.

Every time a window's next bucket seals, the follower hands this
engine the window's readout and the *previous* window's readout (the
span one window earlier), both built by
:meth:`~repro.follow.windows.WindowRing.readout`, so the numbers are
the study-wide fold every :class:`~repro.core.readout.EnergyReadout`
runs. Three kinds of line come out:

* a **total** line, always — the window's attributed joules and the
  percentage delta against the previous window;
* **top-N entry** lines — apps that entered the top-N energy ranking
  since the last evaluation (on the very first evaluation the whole
  ranking "enters");
* **surge** lines — apps whose window energy is at least
  ``surge_factor``× their previous-window energy, emitted once on
  entering the surged set.

Everything is a pure function of (bucket, window, prior window) plus
the small carried state — which checkpoints with the follower — so a
resumed run emits the byte-identical line sequence an uninterrupted
run would. Ties rank by app id; numbers print with fixed precision.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.readout import EnergyReadout
from repro.trace.dataset import AppRegistry

#: Headline lines kept in the follower's replayable log.
HEADLINE_LOG_LIMIT = 1000


class HeadlineEngine:
    """Per-window change detector over successive sealed windows."""

    def __init__(
        self,
        window_name: str,
        top_n: int = 5,
        surge_factor: float = 2.0,
    ) -> None:
        self.window_name = window_name
        self.top_n = int(top_n)
        self.surge_factor = float(surge_factor)
        #: Top-N app ids of the last evaluation (rank order).
        self._top: List[int] = []
        #: App ids currently in the surged set.
        self._surged: List[int] = []
        self._evaluated = False

    def evaluate(
        self,
        bucket: int,
        window: EnergyReadout,
        prior: EnergyReadout,
        registry: Optional[AppRegistry] = None,
    ) -> List[str]:
        """Headlines for the window sealed at ``bucket``.

        ``prior`` is the window one span earlier; a prior window with
        no users means there is nothing to compare against.
        """
        tag = f"[{self.window_name} #{bucket}]"
        by_app = window.energy_by_app()
        prior_by_app = prior.energy_by_app()
        total = window.attributed_energy
        prior_total = prior.attributed_energy

        lines: List[str] = []
        if prior.user_ids:
            delta = (
                f"{(total - prior_total) / prior_total * 100.0:+.1f}% "
                "vs previous window"
                if prior_total > 0.0
                else "previous window was idle"
            )
        else:
            delta = "no previous window"
        lines.append(f"{tag} total {total:.3f} J ({delta})")

        ranked = sorted(by_app.items(), key=lambda kv: (-kv[1], kv[0]))
        top = [app for app, _ in ranked[: self.top_n]]
        previous_top = set(self._top)
        for rank, app in enumerate(top, start=1):
            if self._evaluated and app in previous_top:
                continue
            verb = (
                f"entered the top-{self.top_n}"
                if self._evaluated
                else f"is #{rank} of the top-{self.top_n}"
            )
            lines.append(
                f"{tag} {self._name(app, registry)} {verb} energy "
                f"consumers ({by_app[app]:.3f} J)"
            )

        surged = []
        for app in sorted(by_app):
            prior = prior_by_app.get(app, 0.0)
            if prior > 0.0 and by_app[app] >= self.surge_factor * prior:
                surged.append(app)
                if app not in self._surged:
                    lines.append(
                        f"{tag} {self._name(app, registry)} energy "
                        f"surged {by_app[app] / prior:.1f}x vs previous "
                        f"window ({by_app[app]:.3f} J)"
                    )

        self._top = top
        self._surged = surged
        self._evaluated = True
        return lines

    @staticmethod
    def _name(app_id: int, registry: Optional[AppRegistry]) -> str:
        if registry is not None and app_id in registry:
            return registry.name_of(app_id)
        return f"app{app_id}"

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """JSON-serialisable carried state."""
        return {
            "top": list(self._top),
            "surged": list(self._surged),
            "evaluated": self._evaluated,
        }

    @classmethod
    def from_state(
        cls,
        window_name: str,
        state: dict,
        top_n: int = 5,
        surge_factor: float = 2.0,
    ) -> "HeadlineEngine":
        engine = cls(window_name, top_n=top_n, surge_factor=surge_factor)
        engine._top = [int(a) for a in state.get("top", [])]
        engine._surged = [int(a) for a in state.get("surged", [])]
        engine._evaluated = bool(state.get("evaluated", False))
        return engine
