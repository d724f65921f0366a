"""The one renderer registry behind the CLI, the store and the server.

Byte-identity between CLI output, store-cached blobs and HTTP bodies
is not asserted after the fact — it is guaranteed by construction: all
three print a totals-tier artefact by calling :func:`render_analysis`,
so the same :data:`ANALYSES` entry renders it. On the CLI that is
``repro figure 1``–``3`` and ``repro table 1`` (batch,
``--from-checkpoint`` and ``--store``), ``repro headlines`` from a
checkpoint or a store, the Fig 1–3 and Table 1 blocks of
``repro report`` (with ``--from-checkpoint``, its headline block too),
and each model's headline block of ``repro report --models``.

Every renderer here is totals-tier (Figs 1–3, Table 1, the totals
headlines, the readout aggregates), so any readout — batch
:class:`~repro.core.accounting.StudyEnergy`, live stream result, or
loaded checkpoint — renders the identical text. Batch Fig 1 renders
from the :class:`~repro.trace.dataset.Dataset` itself, since it ranks
apps by traffic alone. The per-packet sections (the full batch
headline set, Figs 4–6, Table 2) are CLI-only: deliberately absent
here and unservable.
"""

from __future__ import annotations

import json
from typing import Callable, Dict

from repro.core import report
from repro.core.casestudies import case_study_table
from repro.core.headlines import totals_headline_stats
from repro.core.popularity import top10_appearance_counts, top_consumers
from repro.core.readout import EnergyReadout
from repro.core.statefrac import state_energy_fractions
from repro.errors import AnalysisError
from repro.trace.arrays import STATE_UNLABELLED
from repro.trace.events import ProcessState


def render_headline_rows(headlines) -> str:
    """Format :class:`~repro.core.headlines.Headline` rows, CLI-style."""
    return report.render_headlines(
        {
            f"{h.description} (paper: {h.paper_value:g})": round(h.measured, 3)
            for h in headlines
        }
    )


def readout_payload(readout: EnergyReadout) -> dict:
    """The study-wide aggregates of a readout as a JSON-able dict.

    What ``GET /readouts/{study}`` serves: per-app energy and traffic,
    per-state energy (packets never state-labelled under
    ``unlabelled``), the idle/attributed/total split and the user list
    — the numbers every totals-tier figure reduces from, exactly as the
    readout computes them (full float precision, no rounding).
    """
    provenance = getattr(readout, "provenance", None)
    return {
        "study": provenance.fingerprint if provenance else None,
        "model": provenance.model if provenance else None,
        "policy": provenance.policy if provenance else None,
        "users": list(readout.user_ids),
        "total_energy_j": readout.total_energy,
        "attributed_energy_j": readout.attributed_energy,
        "idle_energy_j": readout.idle_energy,
        "energy_by_app_j": {
            readout.app_name(app): joules
            for app, joules in readout.energy_by_app().items()
        },
        "bytes_by_app": {
            readout.app_name(app): n
            for app, n in readout.bytes_by_app().items()
        },
        "energy_by_state_j": {
            _state_name(state): joules
            for state, joules in readout.energy_by_state().items()
        },
    }


def _state_name(state: int) -> str:
    """A process state's payload name; packets never labelled are
    ``unlabelled``."""
    if state == STATE_UNLABELLED:
        return "unlabelled"
    return ProcessState(state).name.lower()


def _render_fig1(readout: EnergyReadout) -> str:
    return report.render_fig1(top10_appearance_counts(readout))


def _render_fig2(readout: EnergyReadout) -> str:
    return report.render_fig2(
        top_consumers(readout, by="energy"), top_consumers(readout, by="data")
    )


def _render_fig3(readout: EnergyReadout) -> str:
    return report.render_fig3(state_energy_fractions(readout))


def _render_table1(readout: EnergyReadout) -> str:
    return report.render_table1(case_study_table(readout))


def _render_headlines(readout: EnergyReadout) -> str:
    return render_headline_rows(totals_headline_stats(readout))


def _render_readout(readout: EnergyReadout) -> str:
    return json.dumps(readout_payload(readout), indent=2)


#: Analysis name → totals-tier renderer. The keys are exactly
#: :data:`repro.store.keys.ANALYSIS_NAMES`.
ANALYSES: Dict[str, Callable[[EnergyReadout], str]] = {
    "fig1": _render_fig1,
    "fig2": _render_fig2,
    "fig3": _render_fig3,
    "table1": _render_table1,
    "headlines": _render_headlines,
    "readout": _render_readout,
}

#: Analysis name → blob kind (and thence HTTP media type).
ANALYSIS_KINDS: Dict[str, str] = {
    name: ("json" if name == "readout" else "text") for name in ANALYSES
}


def render_analysis(name: str, readout: EnergyReadout) -> str:
    """Render one servable artefact from any totals-tier readout."""
    try:
        renderer = ANALYSES[name]
    except KeyError:
        raise AnalysisError(
            f"unknown servable analysis {name!r}; the store renders "
            f"{', '.join(sorted(ANALYSES))}"
        ) from None
    return renderer(readout)
