"""docs/API.md, SERVING.md, SCALING.md, MONITORING.md and POLICIES.md
cannot rot.

Six contracts are enforced on every tier-1 run:

* Every code span in the first column of a ``## `repro...```-titled
  section table (in any of the five files) is an attribute of that
  section's package or a dotted module path, and must import.
* docs/SERVING.md's endpoint table documents exactly the routes the
  server implements (``repro.store.server.ROUTES``).
* Each file's exit-code table matches the constants the CLI actually
  exits with, and the union of the three tables equals the
  ``repro.exitcodes`` module exactly — no orphan constants, no
  undocumented codes.
* docs/SCALING.md's manifest format number matches
  ``repro.shard.MANIFEST_FORMAT``.
* docs/MONITORING.md's published-analysis list matches
  ``repro.follow.LIVE_ANALYSES``.
* docs/POLICIES.md's policy vocabulary matches
  ``repro.policy.available_policies()``.

The CLI block in docs/API.md is checked too: every ``repro <command>``
line must name real subcommands, and every ``--flag`` on it must be an
option of the subcommands it names.
"""

import argparse
import re
from importlib import import_module
from pathlib import Path

import pytest

DOCS = Path(__file__).resolve().parent.parent / "docs"
API_MD = DOCS / "API.md"
SERVING_MD = DOCS / "SERVING.md"
SCALING_MD = DOCS / "SCALING.md"
MONITORING_MD = DOCS / "MONITORING.md"
POLICIES_MD = DOCS / "POLICIES.md"
SECTION_RE = re.compile(r"^## `(repro[a-z_.]*)`")
HEADING_RE = re.compile(r"^#{1,6} ")
CODE_RE = re.compile(r"`([^`]+)`")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
DOTTED_RE = re.compile(r"^[a-z_]+(\.[a-z_]+)+$")


def _documented_symbols(path):
    """(package, span) for every first-column code span under a
    ``## `repro...``` section heading. Any other heading *ends* the
    section, so prose tables (endpoints, exit codes) are never parsed
    as symbols."""
    section = None
    for line in path.read_text().splitlines():
        match = SECTION_RE.match(line)
        if match:
            section = match.group(1)
            continue
        if HEADING_RE.match(line):
            section = None
            continue
        if section is None or not line.startswith("|"):
            continue
        first_cell = line.split("|")[1].strip()
        if first_cell == "name" or set(first_cell) <= {"-", ":", " "}:
            continue  # header / separator rows
        for span in CODE_RE.findall(first_cell):
            yield section, span.strip()


SYMBOLS = sorted(
    set(_documented_symbols(API_MD))
    | set(_documented_symbols(SERVING_MD))
    | set(_documented_symbols(SCALING_MD))
    | set(_documented_symbols(MONITORING_MD))
    | set(_documented_symbols(POLICIES_MD))
)


def test_docs_were_parsed():
    """Guard the guard: an empty parse would vacuously pass."""
    assert len(SYMBOLS) > 90
    packages = {package for package, _ in SYMBOLS}
    assert len(packages) >= 8
    assert "repro.store" in packages
    assert "repro.shard" in packages
    assert "repro.follow" in packages
    assert "repro.policy" in packages


@pytest.mark.parametrize(
    "package,span", SYMBOLS, ids=[f"{p}:{s}" for p, s in SYMBOLS]
)
def test_documented_symbol_imports(package, span):
    if DOTTED_RE.match(span):
        import_module(span)
        return
    assert IDENTIFIER_RE.match(span), (
        f"docs first-column span {span!r} under {package} is not a "
        "plain identifier or module path; move call examples/prose to the "
        "second column"
    )
    module = import_module(package)
    assert hasattr(module, span), (
        f"the docs document {package}.{span}, which does not exist"
    )


def _table_first_cells(path, heading):
    """First-column code spans of the table under one ``## heading``."""
    in_section = False
    for line in path.read_text().splitlines():
        if line.startswith("## "):
            in_section = line[3:].strip() == heading
            continue
        if not in_section or not line.startswith("|"):
            continue
        first_cell = line.split("|")[1].strip()
        if set(first_cell) <= {"-", ":", " "}:
            continue
        spans = CODE_RE.findall(first_cell)
        if spans:
            yield spans[0], line


def test_serving_md_documents_exactly_the_served_routes():
    from repro.store.server import ROUTES

    documented = {
        span for span, _ in _table_first_cells(SERVING_MD, "HTTP endpoints")
    }
    assert documented, "no endpoint table found in docs/SERVING.md"
    assert documented == set(ROUTES), (
        f"docs/SERVING.md endpoint table disagrees with server ROUTES: "
        f"documented-only={documented - set(ROUTES)}, "
        f"implemented-only={set(ROUTES) - documented}"
    )


def test_serving_md_exit_codes_match_cli_constants():
    from repro import cli

    rows = {
        span: line
        for span, line in _table_first_cells(SERVING_MD, "CLI exit codes")
    }
    assert set(rows) == {"0", "2", "3", "4"}
    assert cli.EXIT_NEEDS_PACKET_DETAIL == 3
    assert "NeedsPacketDetail" in rows[str(cli.EXIT_NEEDS_PACKET_DETAIL)]
    assert cli.EXIT_STORE_MISS == 4
    assert "--store-only" in rows[str(cli.EXIT_STORE_MISS)]


def test_scaling_md_exit_codes_match_cli_constants():
    """docs/SCALING.md documents the full exit-code set including the
    shard-merge refusal and transport-failure codes."""
    from repro import cli

    rows = {
        span: line
        for span, line in _table_first_cells(SCALING_MD, "CLI exit codes")
    }
    assert set(rows) == {"0", "2", "3", "4", "5", "8"}
    assert cli.EXIT_SHARD_INCOMPLETE == 5
    assert "ShardIncomplete" in rows[str(cli.EXIT_SHARD_INCOMPLETE)]
    assert "repro shard run" in rows[str(cli.EXIT_SHARD_INCOMPLETE)]
    assert cli.EXIT_TRANSPORT_FAILED == 8
    transport_row = rows[str(cli.EXIT_TRANSPORT_FAILED)]
    assert "TransportError" in transport_row
    assert "repro shard run" in transport_row


def test_monitoring_md_exit_codes_match_cli_constants():
    """docs/MONITORING.md documents the follow-specific codes."""
    from repro import exitcodes

    rows = {
        span: line
        for span, line in _table_first_cells(MONITORING_MD, "CLI exit codes")
    }
    assert set(rows) == {"0", "2", "6", "7"}
    assert exitcodes.EXIT_FOLLOW_INTERRUPTED == 6
    follow_row = rows[str(exitcodes.EXIT_FOLLOW_INTERRUPTED)]
    assert "SIGTERM" in follow_row and "--resume" in follow_row
    assert exitcodes.EXIT_SOURCE_TRUNCATED == 7
    assert "SourceTruncated" in rows[str(exitcodes.EXIT_SOURCE_TRUNCATED)]


def test_documented_exit_codes_cover_exitcodes_module_exactly():
    """The union of the three exit-code tables is the whole vocabulary:
    every ``EXIT_*`` constant in ``repro.exitcodes`` appears in some
    docs table, and no table invents a code the module lacks."""
    from repro import exitcodes

    defined = {
        str(value)
        for name, value in vars(exitcodes).items()
        if name.startswith("EXIT_")
    }
    documented = {
        span
        for path in (SERVING_MD, SCALING_MD, MONITORING_MD)
        for span, _ in _table_first_cells(path, "CLI exit codes")
    }
    assert documented == defined, (
        f"undocumented codes: {defined - documented}; "
        f"documented-but-undefined: {documented - defined}"
    )


def test_monitoring_md_live_analyses_are_current():
    """The documented published-analysis list is the implemented one."""
    from repro.follow import LIVE_ANALYSES

    text = MONITORING_MD.read_text()
    assert f"`{' '.join(LIVE_ANALYSES)}`" in text, (
        "docs/MONITORING.md must list the live analyses exactly as "
        f"{' '.join(LIVE_ANALYSES)}"
    )


def test_scaling_md_manifest_format_is_current():
    from repro.shard import MANIFEST_FORMAT

    text = SCALING_MD.read_text()
    assert f"reads format `{MANIFEST_FORMAT}`" in text, (
        "docs/SCALING.md must document the current manifest format "
        f"({MANIFEST_FORMAT})"
    )


def test_serving_md_analysis_names_are_current():
    """The documented analysis vocabulary is the implemented one."""
    from repro.store import ANALYSIS_NAMES

    text = SERVING_MD.read_text()
    assert f"`{' '.join(ANALYSIS_NAMES)}`" in text, (
        "docs/SERVING.md must list the storable analyses exactly as "
        f"{' '.join(ANALYSIS_NAMES)}"
    )


def test_policies_md_vocabulary_is_current():
    """The documented policy vocabulary is the registered one."""
    from repro.policy import available_policies

    text = POLICIES_MD.read_text()
    assert f"`{' '.join(available_policies())}`" in text, (
        "docs/POLICIES.md must list the registered policies exactly as "
        f"{' '.join(available_policies())}"
    )


def test_policies_md_documents_every_policy_params():
    """Each registered policy's table row names its real dataclass
    fields, so parameter docs cannot drift from the code."""
    from dataclasses import fields

    from repro.policy import available_policies, policy_class

    rows = {
        span: line
        for span, line in _table_first_cells(POLICIES_MD, "Policy vocabulary")
    }
    assert set(rows) == set(available_policies())
    for name in available_policies():
        cls = policy_class(name)
        for f in fields(cls):
            assert f.name in rows[name], (
                f"docs/POLICIES.md row for {name!r} does not mention its "
                f"parameter {f.name!r}"
            )


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """``{name: parser}`` of a parser's subcommands (empty if none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _api_cli_lines():
    """The ``repro ...`` lines of docs/API.md's fenced CLI block."""
    in_block = False
    for line in API_MD.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            continue
        if in_block and line.startswith("repro "):
            yield line


def test_cli_block_commands_exist():
    """Each line's commands exist, and each ``--flag`` on the line is an
    option of every command it names — or of a nested subcommand it
    names (``repro store ... ls|gc|invalidate [--fingerprint ...]``)."""
    from repro.cli import build_parser

    commands = _subcommands(build_parser())
    lines = list(_api_cli_lines())
    assert lines, "no CLI lines found in docs/API.md"
    for line in lines:
        tokens = line.split()
        named = tokens[1].split("|")
        missing = set(named) - set(commands)
        assert not missing, (
            f"docs/API.md documents unknown CLI commands {missing}: {line}"
        )
        words = {word for token in tokens[2:] for word in token.split("|")}
        for name in named:
            options = set(commands[name]._option_string_actions)
            for sub_name, sub in _subcommands(commands[name]).items():
                if sub_name in words:
                    options |= set(sub._option_string_actions)
            unknown = set(FLAG_RE.findall(line)) - options
            assert not unknown, (
                f"docs/API.md: `repro {name}` has no option "
                f"{sorted(unknown)}: {line}"
            )
