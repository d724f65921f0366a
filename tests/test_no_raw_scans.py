"""Guards: no raw scans in the analysis layer, no swallowed errors in
the fault-handling layer.

Every figure/table analysis used to rediscover per-app and per-state
groups with full-array boolean masks. Those all moved behind the shared
:class:`~repro.trace.index.TraceIndex`; this test greps the analysis
layer for the tell-tale patterns so a future edit cannot quietly
reintroduce an O(apps x packets) scan.

The second guard covers the hardened failure paths (``repro.faults``,
``repro.parallel``, ``repro.stream``, the CSV reader): error handling
there must count, quarantine, wrap or re-raise — a bare
``except ...: pass`` would turn a structured failure back into silent
data loss, which is exactly what the fault-injection work exists to
rule out.

The third keeps the file protocol in one place: only
``repro.durable`` may rename files, elect a lock with ``O_EXCL`` or
spell a ``.prev``/``.tmp`` name.

The fourth keeps event streams in one form: only
``repro.trace.events`` converts between event objects and the
columnar arrays an ``EventLog`` holds.

The fifth keeps process pools where they pay: only study generation,
stream chunk rounds and shard execution import ``repro.parallel``.

The sixth keeps keyed totals on the one fold: no module groups with
``np.unique(..., return_inverse=True)``, an argsort per call that
``repro.keyed`` replaces with ``np.bincount`` over dense keys.

The seventh keeps the radio arithmetic in one copy: only
``repro.radio.attribution``, the kernel both attribution engines call,
computes tail energy, and nothing imports the deleted second engine.

The eighth keeps study-wide totals on one addition order: no builtin
``sum()`` in ``repro.core``, ``repro.store`` or ``repro.follow``,
whose float result differs between CPython 3.11 and 3.12; those
packages add through ``repro.core.readout.sequential_sum``.

The ninth keeps the totals-tier artefacts on one renderer registry:
only ``repro.store.render`` renders Figs 1-3, Table 1 and the totals
headlines, so the CLI, the store and the server print the same text.

The tenth keeps CSV parsing in one module: only ``repro.trace.io_text``
imports ``csv`` or calls ``parse_packet_fields``, so every reader —
batch, stream and live tail — reads a row the same way.

The eleventh keeps the per-user totals record in one place: only
``repro.keyed`` constructs a ``KeyedTotals`` or calls ``key_defect``;
every other module holds, saves and loads a ``UserTotals``.

The twelfth keeps packet records moving as raw bytes: only
``repro.trace.arrays`` gathers, masks or copies packet records, through
its raw-record view. Elsewhere a ``.data`` attribute is subscripted by
a field name or a slice only, no ``.data.copy()`` is called, and no
``np.frombuffer(...)`` result is copied.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
STREAM = Path(__file__).resolve().parents[1] / "src" / "repro" / "stream"
SHARD = Path(__file__).resolve().parents[1] / "src" / "repro" / "shard"

#: Patterns that indicate an ad-hoc per-app or per-state scan.
FORBIDDEN = (
    # per-app boolean masks: packets.apps == app_id
    re.compile(r"\.apps\s*=="),
    # ad-hoc state-group membership: np.isin(<...>states<...>, ...)
    re.compile(r"np\.isin\([^)]*\.states"),
    re.compile(r"np\.isin\([^)]*\[[\"']state[\"']\]"),
    # per-app row copies that bypass the grouped views
    re.compile(r"\.for_app\("),
    # rebuilding the interned state-value arrays by hand
    re.compile(r"int\(s\)\s*for\s*s\s*in\s*BACKGROUND_STATES"),
    re.compile(r"int\(s\)\s*for\s*s\s*in\s*FOREGROUND_STATES"),
)


def _core_sources():
    return sorted(CORE.glob("*.py"))


def _stream_sources():
    return sorted(STREAM.glob("*.py"))


def _shard_sources():
    return sorted(SHARD.glob("*.py"))


def _scan(path):
    offending = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        for pattern in FORBIDDEN:
            if pattern.search(line):
                offending.append(f"{path.name}:{lineno}: {stripped}")
    return offending


def test_core_package_exists():
    assert _core_sources(), f"no sources under {CORE}"


def test_stream_package_exists():
    assert _stream_sources(), f"no sources under {STREAM}"


def test_shard_package_exists():
    assert _shard_sources(), f"no sources under {SHARD}"


@pytest.mark.parametrize("path", _core_sources(), ids=lambda p: p.name)
def test_no_raw_scans_in_core(path):
    offending = _scan(path)
    assert not offending, (
        "raw per-app/per-state scans in repro.core — route these through "
        "TraceIndex (trace.index() / study.index_for()):\n"
        + "\n".join(offending)
    )


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Files on the hardened failure paths: everything that catches an
#: exception here must surface it (count, quarantine, wrap, re-raise).
FAULT_PATH_SOURCES = (
    SRC / "faults.py",
    SRC / "parallel.py",
    SRC / "trace" / "io_text.py",
    SRC / "stream" / "accumulate.py",
    SRC / "stream" / "cadence.py",
    SRC / "stream" / "checkpoint.py",
    SRC / "stream" / "chunks.py",
    SRC / "stream" / "ingest.py",
    # The shard layers exist to refuse partial state with typed
    # errors; a swallowed exception there is a wrong merge waiting.
    SRC / "shard" / "plan.py",
    SRC / "shard" / "execute.py",
    SRC / "shard" / "merge.py",
    # The readout layer gates per-packet analyses with typed errors;
    # swallowing one would hide the gate and return wrong answers.
    SRC / "core" / "readout.py",
)

#: ``except <anything>:`` followed by nothing but ``pass`` (comments
#: allowed in between) — the swallow idiom.
_EXCEPT_LINE = re.compile(r"^\s*except\b[^:]*:\s*(#.*)?$")
_EXCEPT_INLINE_PASS = re.compile(r"^\s*except\b[^:]*:\s*pass\b")


def _swallows(path):
    lines = path.read_text().splitlines()
    offending = []
    for lineno, line in enumerate(lines, start=1):
        if _EXCEPT_INLINE_PASS.match(line):
            offending.append(f"{path.name}:{lineno}: {line.strip()}")
            continue
        if not _EXCEPT_LINE.match(line):
            continue
        for follower in lines[lineno:]:
            body = follower.strip()
            if not body or body.startswith("#"):
                continue
            if body == "pass":
                offending.append(f"{path.name}:{lineno}: {line.strip()}")
            break
    return offending


@pytest.mark.parametrize(
    "path", FAULT_PATH_SOURCES, ids=lambda p: p.name
)
def test_no_swallowed_errors_on_fault_paths(path):
    assert path.exists(), f"hardened source moved or deleted: {path}"
    offending = _swallows(path)
    assert not offending, (
        "bare `except ...: pass` on a hardened failure path — count it, "
        "quarantine it, wrap it or re-raise it:\n" + "\n".join(offending)
    )


_ROTATION_NAME = re.compile(r"\.(prev|tmp)\b")


def _durable_protocol_uses(path):
    """Renames, ``O_EXCL`` and ``.prev``/``.tmp`` literals in ``path``.

    A ``Path.replace``/``rename`` call is recognised by its single
    argument (``str.replace`` takes two); docstrings may still talk
    about the protocol.
    """
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        )
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if node.func.attr in ("replace", "rename") and (
                (isinstance(receiver, ast.Name) and receiver.id == "os")
                or (len(node.args) == 1 and not node.keywords)
            ):
                found.append((node.lineno, f".{node.func.attr}() rename"))
        elif isinstance(node, (ast.Attribute, ast.Name)) and "O_EXCL" in (
            getattr(node, "attr", None),
            getattr(node, "id", None),
        ):
            found.append((node.lineno, "O_EXCL"))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _ROTATION_NAME.search(node.value)
        ):
            found.append((node.lineno, repr(node.value)))
    return [f"{path.relative_to(SRC)}:{line}: {what}" for line, what in found]


def test_only_repro_durable_renames_files():
    """Atomic writes, ``.prev`` rotation and lock elections were once
    re-implemented per subsystem and drifted apart (an ``invalidate``
    deleted the temp file a ``put`` was about to rename). Every caller
    now goes through :mod:`repro.durable`; keep it that way."""
    sources = sorted(SRC.rglob("*.py"))
    assert SRC / "durable.py" in sources
    assert _durable_protocol_uses(SRC / "durable.py"), "guard matches nothing"
    offending = [
        hit
        for path in sources
        if path != SRC / "durable.py"
        for hit in _durable_protocol_uses(path)
    ]
    assert not offending, (
        "file renames, O_EXCL locks or .prev/.tmp names outside "
        "repro.durable — use write_atomic / read_verified / "
        "single_flight:\n" + "\n".join(offending)
    )


@pytest.mark.parametrize("path", _stream_sources(), ids=lambda p: p.name)
def test_no_raw_scans_in_stream(path):
    """The streaming accumulators group with bincount over chunk-local
    keys; whole-trace boolean masks would silently reintroduce the
    O(apps x packets) cost the chunked design exists to avoid."""
    offending = _scan(path)
    assert not offending, (
        "raw per-app/per-state scans in repro.stream — accumulate through "
        "KeyedTotals / the carry-bincount path instead:\n"
        + "\n".join(offending)
    )


@pytest.mark.parametrize("path", _shard_sources(), ids=lambda p: p.name)
def test_no_raw_scans_in_shard(path):
    """The shard layers only route users and fold checkpoints; any
    per-app/per-state scan here would mean analysis logic leaked out
    of the accumulators into the orchestration layer."""
    offending = _scan(path)
    assert not offending, (
        "raw per-app/per-state scans in repro.shard — shard code routes "
        "users and merges checkpoints, it never touches packet columns:\n"
        + "\n".join(offending)
    )


#: An event log's per-event object views.
_EVENT_OBJECT_VIEWS = frozenset(
    {"process_events", "screen_events", "input_events", "process_events_for_app"}
)

#: The event dtypes' names, today's and the ones they replaced.
_EVENT_DTYPE_NAME = re.compile(r"^_?(PROC|PROCESS|SCREEN|INPUT)\w*_DTYPE$")


def _event_conversions(path):
    """Object-view reads and event-dtype names in ``path``.

    ``timeline.<stream>`` is the generator's own ``UserTimeline`` list,
    which the generator hands to the ``EventLog`` constructor; it is
    not a log.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _EVENT_OBJECT_VIEWS
            and not (isinstance(node.value, ast.Name) and node.value.id == "timeline")
        ):
            found.append((node.lineno, f".{node.attr}"))
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if isinstance(name, str) and _EVENT_DTYPE_NAME.match(name):
            found.append((node.lineno, name))
    return [
        f"{path.relative_to(SRC)}:{line}: {what}" for line, what in sorted(found)
    ]


def test_only_trace_events_converts_event_objects():
    """Readers once rebuilt arrays from event objects on every call
    (state labelling, the doze policy, ``screen_on_at``) while
    ``Dataset`` converted back and forth on save and load. The log now
    holds the saved arrays; every reader outside
    :mod:`repro.trace.events` uses them, never the object views."""
    events = SRC / "trace" / "events.py"
    assert _event_conversions(events), "guard matches nothing"
    offending = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path != events
        for hit in _event_conversions(path)
    ]
    assert not offending, (
        "event objects or event dtypes outside repro.trace.events — read "
        "EventLog.process/.screen/.input or process_for_app():\n"
        + "\n".join(offending)
    )


#: The modules whose process pools pay for themselves: study
#: generation and shard execution.
_POOL_USERS = (
    SRC / "workload" / "generator.py",
    SRC / "shard" / "execute.py",
    SRC / "shard" / "coordinator.py",
)


def _parallel_imports(path):
    """Lines of ``path`` that import :mod:`repro.parallel` or from it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "repro":
                names += [f"repro.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[:2] == ["repro", "parallel"] for name in names):
            found.append(node.lineno)
    return [f"{path.relative_to(SRC)}:{line}" for line in found]


def test_only_pool_users_import_repro_parallel():
    """Batch attribution, index builds and stream chunk rounds once
    crossed a worker pool that cost about as much as the work it
    shipped; they now run in process. A pool elsewhere must first show
    that it pays."""
    for path in _POOL_USERS:
        assert _parallel_imports(path), f"guard matches nothing in {path}"
    offending = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path not in _POOL_USERS
        for hit in _parallel_imports(path)
    ]
    assert not offending, (
        "repro.parallel imported outside generation and shard "
        "execution:\n" + "\n".join(offending)
    )


def _radio_steps(path):
    """``StreamingAttribution(...)`` and ``RadioCarry.from_payload(...)``
    calls in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "StreamingAttribution":
            found.append((node.lineno, "StreamingAttribution(...)"))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "from_payload"
            and isinstance(func.value, ast.Name)
            and func.value.id == "RadioCarry"
        ):
            found.append((node.lineno, "RadioCarry.from_payload(...)"))
    return [
        f"{path.relative_to(SRC)}:{line}: {what}" for line, what in sorted(found)
    ]


def test_one_per_user_streaming_step():
    """The ingestor and the follower each once rebuilt a radio
    simulation from the carry payload on every chunk. Both now call
    ``UserStreamAccumulator.feed``, which owns the live simulation;
    only :mod:`repro.stream.accumulate` builds one, besides
    :mod:`repro.radio.streaming`, which defines them."""
    owner = SRC / "stream" / "accumulate.py"
    defining = SRC / "radio" / "streaming.py"
    assert _radio_steps(owner), "guard matches nothing"
    offending = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path not in (owner, defining)
        for hit in _radio_steps(path)
    ]
    assert not offending, (
        "a streaming radio step outside repro.stream.accumulate — feed "
        "chunks through UserStreamAccumulator.feed:\n" + "\n".join(offending)
    )


#: What the sixth guard must catch: the group-by ``repro.keyed`` replaced.
_PLANTED_UNIQUE_INVERSE = (
    "uniq, inverse = np.unique(keys, return_inverse=True)\n"
    "sums = np.bincount(inverse, weights=values)\n"
)


def _unique_inverse_calls(source, name):
    """``unique`` calls that ask for the inverse (by keyword, or as the
    third positional argument) and numpy's ``unique_inverse`` and
    ``unique_all``, in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = getattr(func, "attr", None) or getattr(func, "id", None)
        inverse = len(node.args) >= 3 or any(
            kw.arg == "return_inverse"
            and not (isinstance(kw.value, ast.Constant) and not kw.value.value)
            for kw in node.keywords
        )
        if called in ("unique_inverse", "unique_all") or (
            called == "unique" and inverse
        ):
            found.append(f"{name}:{node.lineno}")
    return found


def test_no_unique_inverse_group_bys():
    """Per-app and per-(app, state) totals were once four copies of
    ``np.unique(keys, return_inverse=True)`` plus ``np.bincount``; the
    argsort inside was report-policy's largest single cost. Every
    keyed total now goes through :func:`repro.keyed.fold_totals`."""
    assert _unique_inverse_calls(_PLANTED_UNIQUE_INVERSE, "planted"), (
        "guard matches nothing"
    )
    offending = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        for hit in _unique_inverse_calls(
            path.read_text(), str(path.relative_to(SRC))
        )
    ]
    assert not offending, (
        "np.unique(..., return_inverse=True) in src/repro — fold keyed "
        "totals with repro.keyed.fold_totals or KeyedTotals:\n"
        + "\n".join(offending)
    )


#: What the seventh guard must catch: a second copy of the tail rule.
_PLANTED_SECOND_ENGINE = (
    "from repro.radio.vectorized import compute_packet_energy\n"
    "tail = model.tail_energy_vector(np.minimum(gaps, model.tail_duration))\n"
)


def _radio_arithmetic(source, name):
    """``tail_energy_vector`` calls and ``repro.radio.vectorized``
    imports in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if called == "tail_energy_vector":
                found.append(f"{name}:{node.lineno}: tail_energy_vector(...)")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "repro.radio":
                    names += [f"repro.radio.{a.name}" for a in node.names]
            else:
                names = [alias.name for alias in node.names]
            if "repro.radio.vectorized" in names:
                found.append(f"{name}:{node.lineno}: import repro.radio.vectorized")
    return found


def test_radio_arithmetic_in_one_module():
    """The batch engine and the streaming engine once each held their
    own gap, promotion, tail, split-adjacent and idle arithmetic, kept
    equal only by differential tests. Both now call the one kernel in
    :mod:`repro.radio.attribution`, the only module that computes tail
    energy (:mod:`repro.radio.base` defines the tail profile)."""
    kernel = SRC / "radio" / "attribution.py"
    assert len(_radio_arithmetic(_PLANTED_SECOND_ENGINE, "planted")) == 2, (
        "guard matches nothing"
    )
    assert _radio_arithmetic(kernel.read_text(), "kernel"), (
        "guard matches nothing in the kernel"
    )
    offending = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path != kernel
        for hit in _radio_arithmetic(path.read_text(), str(path.relative_to(SRC)))
    ]
    assert not offending, (
        "radio arithmetic outside repro.radio.attribution — compute "
        "per-packet energy through its kernel:\n" + "\n".join(offending)
    )


#: What the eighth guard must catch: a builtin ``sum()`` over floats.
_PLANTED_BUILTIN_SUM = (
    "total = sum(r.idle_energy for r in results)\n"
    "share = sum(parts.values()) / total\n"
)

#: Packages whose totals are study-wide floats a readout reports.
_SEQUENTIAL_SUM_PACKAGES = ("core", "store", "follow")


def _builtin_sums(source, name):
    """Calls of the builtin ``sum`` in ``source``."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]


def test_no_builtin_sum_in_study_wide_packages():
    """CPython 3.12 compensates builtin ``sum()`` over floats and 3.10
    does not, so a total folded with it could differ in its last bits
    between the Pythons CI runs. The readout, analysis, store and
    follow layers add left to right through ``sequential_sum``."""
    assert len(_builtin_sums(_PLANTED_BUILTIN_SUM, "planted")) == 2, (
        "guard matches nothing"
    )
    offending = [
        hit
        for package in _SEQUENTIAL_SUM_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        for hit in _builtin_sums(path.read_text(), str(path.relative_to(SRC)))
    ]
    assert not offending, (
        "builtin sum() in a study-wide package — add through "
        "repro.core.readout.sequential_sum:\n" + "\n".join(offending)
    )


#: What the ninth guard must catch: the CLI's inline totals-tier renders.
_PLANTED_INLINE_RENDERS = (
    "print(report.render_fig1(top10_appearance_counts(readout)))\n"
    "print(report.render_fig2(top_consumers(s, by='energy'), top))\n"
    "print(report.render_fig3(state_energy_fractions(readout)))\n"
    "print(report.render_table1(case_study_table(readout)))\n"
    "print(render_headline_rows(totals_headline_stats(readout)))\n"
)

#: Totals-tier renderer → the modules besides ``repro.store.render``
#: that may call it: ``headline_stats`` extends the totals headlines.
_REGISTRY_RENDERERS = {
    "render_fig1": (),
    "render_fig2": (),
    "render_fig3": (),
    "render_table1": (),
    "totals_headline_stats": ("core/headlines.py",),
}


def _totals_tier_renders(source, name):
    """Calls of the totals-tier renderers in ``source`` that the module
    ``name`` (relative to ``src/repro``) may not make."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = getattr(func, "attr", None) or getattr(func, "id", None)
        allowed = _REGISTRY_RENDERERS.get(called)
        if allowed is not None and name not in allowed:
            found.append(f"{name}:{node.lineno}: {called}(...)")
    return found


def test_totals_tier_renders_go_through_the_registry():
    """The CLI once rendered Figs 1-3, Table 1 and the totals headlines
    inline, 19 times over, while the store and the server rendered them
    through :data:`repro.store.render.ANALYSES`; the outputs agreed only
    because the copies did. Every totals-tier print now calls
    ``render_analysis``."""
    registry = SRC / "store" / "render.py"
    assert len(_totals_tier_renders(_PLANTED_INLINE_RENDERS, "planted")) == 5, (
        "guard matches nothing"
    )
    assert len(_totals_tier_renders(registry.read_text(), "registry")) == 5, (
        "guard matches nothing in the registry"
    )
    offending = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path != registry
        for hit in _totals_tier_renders(
            path.read_text(), path.relative_to(SRC).as_posix()
        )
    ]
    assert not offending, (
        "a totals-tier artefact rendered outside repro.store.render — "
        "print render_analysis(name, source) instead:\n" + "\n".join(offending)
    )


#: What the tenth guard must catch: a second CSV parser.
_PLANTED_CSV_PARSER = (
    "import csv\n"
    "from csv import reader\n"
    "from repro.trace.io_text import parse_packet_fields\n"
    "row = io_text.parse_packet_fields(dict(zip(names, fields)), registry)\n"
)


def _csv_parsing(source, name):
    """Imports of ``csv`` and calls of ``parse_packet_fields`` in
    ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name == "csv" for alias in node.names):
                found.append(f"{name}:{node.lineno}: import csv")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append(f"{name}:{node.lineno}: from csv import ...")
        elif isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if called == "parse_packet_fields":
                found.append(f"{name}:{node.lineno}: parse_packet_fields(...)")
    return found


def test_one_csv_parser():
    """The live tail once split its reads at each newline and parsed
    every line with its own ``csv.reader`` and ``parse_packet_fields``
    loop, beside the block reader, and the two disagreed (a quoted
    newline). Every packets and events CSV now parses in
    :mod:`repro.trace.io_text`."""
    io_text = SRC / "trace" / "io_text.py"
    assert len(_csv_parsing(_PLANTED_CSV_PARSER, "planted")) == 3, (
        "guard matches nothing"
    )
    assert _csv_parsing(io_text.read_text(), "io_text"), (
        "guard matches nothing in io_text"
    )
    offending = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path != io_text
        for hit in _csv_parsing(
            path.read_text(), path.relative_to(SRC).as_posix()
        )
    ]
    assert not offending, (
        "CSV parsed outside repro.trace.io_text — read through its "
        "block reader:\n" + "\n".join(offending)
    )


#: What the eleventh guard must catch: a hand-kept copy of the record.
_PLANTED_TOTALS_COPY = (
    "energy = KeyedTotals()\n"
    "sizes = keyed.KeyedTotals(dtype=np.int64)\n"
    "defect = key_defect(keys, values, APP_KEY_BOUND)\n"
)


def _keyed_totals_uses(source, name):
    """``KeyedTotals(...)`` and ``key_defect(...)`` calls in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if called in ("KeyedTotals", "key_defect"):
                found.append(f"{name}:{node.lineno}: {called}(...)")
    return found


def test_one_per_user_totals_record():
    """Batch, stream, checkpoints and follow windows once each kept
    their own copy of the energy / app-state / bytes triple: its
    members, key bounds, dtypes, add step, saved names and load check.
    They now hold a :class:`repro.keyed.UserTotals`, and only
    :mod:`repro.keyed` builds a ``KeyedTotals`` or checks a saved key
    array."""
    keyed = SRC / "keyed.py"
    assert len(_keyed_totals_uses(_PLANTED_TOTALS_COPY, "planted")) == 3, (
        "guard matches nothing"
    )
    offending = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path != keyed
        for hit in _keyed_totals_uses(
            path.read_text(), path.relative_to(SRC).as_posix()
        )
    ]
    assert not offending, (
        "KeyedTotals built or key_defect called outside repro.keyed — "
        "hold, save and load a repro.keyed.UserTotals:\n"
        + "\n".join(offending)
    )
    assert _keyed_totals_uses(keyed.read_text(), "keyed"), (
        "guard matches nothing in repro.keyed"
    )


#: What the twelfth guard must catch: the old structured-record moves.
_PLANTED_RECORD_MOVES = (
    "packets = PacketArray(self.packets.data[self.app_indices(app)])\n"
    "data = packets.data.copy()\n"
    "chunk = np.frombuffer(buffer, dtype=dtype).copy()\n"
    "row = trace.packets.data[0]\n"
)

#: What it must let through: whole-column reads and writes, slices.
_PLANTED_COLUMN_USES = (
    "packets.data['flow'] = flow_ids\n"
    "head = packets.data[:n]\n"
    "ts = chunk.data['timestamp'][-1]\n"
)


def _record_moves(source, name):
    """Row subscripts of ``.data``, ``.data.copy()`` calls and copies
    of ``np.frombuffer(...)`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            value, key = node.value, node.slice
            field = isinstance(key, ast.Constant) and isinstance(key.value, str)
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "data"
                and not field
                and not isinstance(key, ast.Slice)
            ):
                found.append(f"{name}:{node.lineno}: .data[...]")
        elif isinstance(node, ast.Call):
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "copy"):
                continue
            target = func.value
            if isinstance(target, ast.Attribute) and target.attr == "data":
                found.append(f"{name}:{node.lineno}: .data.copy()")
            elif isinstance(target, ast.Call):
                called = getattr(target.func, "attr", None) or getattr(
                    target.func, "id", None
                )
                if called == "frombuffer":
                    found.append(f"{name}:{node.lineno}: np.frombuffer(...).copy()")
    return found


def test_packet_records_move_as_raw_bytes():
    """numpy moves a structured packet record field by field, 5-30x
    slower than the same 24 bytes as one raw record. Every gather,
    mask, sort, retime, concatenation and buffer read of packet records
    goes through :class:`repro.trace.arrays.PacketArray`, whose
    raw-record view is private to :mod:`repro.trace.arrays`."""
    arrays = SRC / "trace" / "arrays.py"
    assert len(_record_moves(_PLANTED_RECORD_MOVES, "planted")) == 4, (
        "guard matches nothing"
    )
    assert not _record_moves(_PLANTED_COLUMN_USES, "planted"), (
        "guard matches column uses"
    )
    offending = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path != arrays
        for hit in _record_moves(
            path.read_text(), path.relative_to(SRC).as_posix()
        )
    ]
    assert not offending, (
        "packet records moved outside repro.trace.arrays — index, "
        "select, sort, retime, concatenate or read them through "
        "PacketArray:\n" + "\n".join(offending)
    )
