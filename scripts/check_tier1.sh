#!/usr/bin/env sh
# Tier-1 gate: the exact pytest line CI runs. Extra arguments are
# passed through, e.g.  scripts/check_tier1.sh -k stream
#
# --chaos runs only the seeded fault-injection suite (fixed seeds are
# baked into tests/test_chaos.py, so every invocation replays the same
# fault schedule); see docs/ROBUSTNESS.md.
#
# --cov runs the policy/radio/durable/cadence/keyed test subset under
# coverage and fails below 90% line coverage of src/repro/policy,
# src/repro/radio, src/repro/durable.py, src/repro/stream/cadence.py
# and src/repro/keyed.py — the code whose correctness rests on a
# property/differential layer (docs/POLICIES.md;
# tests/test_policy_transforms.py pins the policy transforms to their
# frozen per-burst/per-packet/per-day loops, tests/test_cadence.py the
# streaming cadence tracker to its frozen per-group reference,
# tests/test_keyed_fold.py the keyed fold to its frozen np.unique
# group-bys and the per-user UserTotals record to one whole-run add,
# its saved names and its load check, and
# tests/test_radio_agreement.py the one radio kernel, whole-trace and
# streamed, to the frozen batch engine in
# tests/radio_reference.py, tests/test_packet_moves.py every
# PacketArray row move, the shift policies' retime among them, to its
# structured-record reference, and tests/test_transitions_folds.py the
# §4.1 episode folds to the per-episode walk frozen in
# tests/transitions_reference.py), and the file protocol every
# checkpoint, manifest, blob and saved dataset goes through. Before
# that it gates src/repro/trace/io_text.py, the CSV readers and
# writers, at 90% line coverage by their differential suites on its own
# (tests/test_csv_blocks.py and tests/test_csv_event_blocks.py pin the
# packets and events block readers to the per-row reference,
# tests/test_csv_prepass.py the stream prepass to a full
# parse, tests/test_csv_writers.py the writers to their frozen row
# loop).
# Needs pytest-cov; skipped (exit 0, with a note) where it is not
# installed, so plain containers stay green.
set -e
cd "$(dirname "$0")/.."
if [ "$1" = "--chaos" ]; then
    shift
    set -- tests/test_chaos.py "$@"
fi
if [ "$1" = "--cov" ]; then
    shift
    if ! python -c "import pytest_cov" 2>/dev/null; then
        echo "check_tier1: pytest-cov not installed; skipping coverage gate"
        exit 0
    fi
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q \
        --cov=repro.trace.io_text \
        --cov-report=term-missing --cov-fail-under=90 \
        tests/test_csv_blocks.py tests/test_trace_io_text.py \
        tests/test_csv_event_blocks.py tests/test_csv_prepass.py \
        tests/test_csv_writers.py
    set -- \
        --cov=repro.policy --cov=repro.radio --cov=repro.durable \
        --cov=repro.stream.cadence --cov=repro.keyed \
        --cov-report=term-missing --cov-fail-under=90 \
        tests/test_policy_properties.py tests/test_policy_transforms.py \
        tests/test_core_whatif.py \
        tests/radio_reference.py \
        tests/test_radio_agreement.py tests/test_radio_vectorized.py \
        tests/test_radio_machine.py tests/test_stream.py \
        tests/test_durable.py tests/test_store.py \
        tests/test_cadence.py tests/test_keyed_fold.py \
        tests/test_packet_moves.py tests/transitions_reference.py \
        tests/test_transitions_folds.py "$@"
fi
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} exec python -m pytest -x -q "$@"
