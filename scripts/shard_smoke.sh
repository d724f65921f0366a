#!/usr/bin/env bash
# End-to-end smoke test of the sharding contract (docs/SCALING.md):
# generate a tiny study, plan/run/merge a sharded ingest, and prove
# the merged checkpoint is indistinguishable from the unsharded one —
# same figure bytes, same store key (a store warmed by the unsharded
# render answers --store-only for the merged checkpoint). Also proves
# the typed failure mode: merging an incomplete plan exits 5. Then the
# same study as per-user CSVs: a resumed (--max-chunks, --resume) and
# a sharded ingest render the uninterrupted one's fig3 bytes, and no
# command leaves a file in TMPDIR.
#
# Run from anywhere; needs only python + numpy. CI runs this as the
# shard-smoke job.
set -eu
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> generate a tiny study"
python -m repro.cli generate --users 3 --days 4 --seed 11 \
    --out "$workdir/study.npz"

echo "==> unsharded ingest (the reference checkpoint)"
python -m repro.cli ingest --dataset "$workdir/study.npz" \
    --checkpoint "$workdir/plain.ckpt.npz" >/dev/null

echo "==> shard plan / run / merge"
python -m repro.cli shard plan --dataset "$workdir/study.npz" \
    --shards 3 --out "$workdir/plan.json"
python -m repro.cli shard run "$workdir/plan.json" --workers 2 --quiet
python -m repro.cli shard merge "$workdir/plan.json" \
    --out "$workdir/merged.ckpt.npz" >/dev/null

echo "==> merged and unsharded checkpoints render identical bytes"
python -m repro.cli figure fig3 \
    --from-checkpoint "$workdir/plain.ckpt.npz" >"$workdir/fig3.plain"
python -m repro.cli figure fig3 \
    --from-checkpoint "$workdir/merged.ckpt.npz" >"$workdir/fig3.merged"
cmp "$workdir/fig3.plain" "$workdir/fig3.merged" || {
    echo "FAIL: fig3 differs between merged and unsharded checkpoints"
    exit 1
}
echo "    fig3 byte-identical"

echo "==> the merged checkpoint derives the unsharded store key"
# Warm the store from the UNSHARDED checkpoint, then demand a cache
# hit (--store-only never renders) keyed by the MERGED one.
python -m repro.cli figure fig3 --from-checkpoint "$workdir/plain.ckpt.npz" \
    --store "$workdir/store" >/dev/null
python -m repro.cli figure fig3 --from-checkpoint "$workdir/merged.ckpt.npz" \
    --store "$workdir/store" --store-only >/dev/null || {
    echo "FAIL: store miss — sharded ingest changed the store key"
    exit 1
}
echo "    warm hit via the sharded key"

echo "==> an incomplete plan refuses to merge (exit 5)"
rm "$workdir/plan.json.shards/shard-1.ckpt.npz"
set +e
python -m repro.cli shard merge "$workdir/plan.json" \
    --out "$workdir/bad.ckpt.npz" 2>"$workdir/merge.err"
code=$?
set -e
if [ "$code" != 5 ]; then
    echo "FAIL: merge of incomplete plan exited $code, wanted 5"
    cat "$workdir/merge.err"
    exit 1
fi
grep -q "not mergeable" "$workdir/merge.err" || {
    echo "FAIL: no typed shard error on stderr"; cat "$workdir/merge.err"
    exit 1
}
echo "    exit 5 with a typed error naming the shard"

echo "==> rerun resumes only the missing shard, then the merge heals"
python -m repro.cli shard run "$workdir/plan.json" --workers 2 --quiet
python -m repro.cli shard merge "$workdir/plan.json" \
    --out "$workdir/merged2.ckpt.npz" >/dev/null
python -m repro.cli figure fig3 \
    --from-checkpoint "$workdir/merged2.ckpt.npz" >"$workdir/fig3.healed"
cmp "$workdir/fig3.plain" "$workdir/fig3.healed"
echo "    healed merge still byte-identical"

echo "==> the same study as per-user CSVs"
# A CSV source spills its parsed rows to an anonymous temporary file;
# with TMPDIR pointed at an empty directory, every command must leave
# it empty.
mkdir "$workdir/csv" "$workdir/tmp"
python - "$workdir" <<'EOF'
import sys
from pathlib import Path

from repro.trace.dataset import Dataset
from repro.trace.io_text import write_events_csv, write_packets_csv

work = Path(sys.argv[1])
dataset = Dataset.load(work / "study.npz")
for user in dataset.users:
    uid = user.user_id
    write_packets_csv(work / "csv" / f"u{uid}.csv", user.packets, dataset.registry)
    write_events_csv(work / "csv" / f"u{uid}.events.csv", user.events, dataset.registry)
EOF
users=()
for packets in "$workdir"/csv/u?.csv; do
    users+=(--user "$packets:${packets%.csv}.events.csv")
done
csv() {
    TMPDIR="$workdir/tmp" python -m repro.cli "$@"
    if [ -n "$(ls -A "$workdir/tmp")" ]; then
        echo "FAIL: repro $1 left files in TMPDIR" >&2
        ls -la "$workdir/tmp" >&2
        exit 1
    fi
}
csv ingest "${users[@]}" --checkpoint "$workdir/csv.ckpt.npz" >/dev/null
csv ingest "${users[@]}" --chunk-size 500 --max-chunks 2 \
    --checkpoint "$workdir/csv-resumed.ckpt.npz" >/dev/null
csv ingest "${users[@]}" --chunk-size 500 --resume \
    --checkpoint "$workdir/csv-resumed.ckpt.npz" >/dev/null
csv shard plan "${users[@]}" --shards 3 --out "$workdir/csv-plan.json" >/dev/null
csv shard run "$workdir/csv-plan.json" --workers 2 --quiet
csv shard merge "$workdir/csv-plan.json" \
    --out "$workdir/csv-merged.ckpt.npz" >/dev/null
for run in csv csv-resumed csv-merged; do
    csv figure fig3 --from-checkpoint "$workdir/$run.ckpt.npz" >"$workdir/fig3.$run"
done
for run in csv-resumed csv-merged; do
    cmp "$workdir/fig3.csv" "$workdir/fig3.$run" || {
        echo "FAIL: fig3 of the $run CSV ingest differs from the uninterrupted one"
        exit 1
    }
done
echo "    resumed and sharded CSV ingests byte-identical; TMPDIR left empty"

echo "shard smoke: OK"
