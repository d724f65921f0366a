#!/usr/bin/env bash
# End-to-end smoke test of the remote transport (docs/SCALING.md,
# "Remote transport"): start two real `repro shard worker` processes
# on ephemeral ports, run a sharded ingest over them with a worker-URL
# --workers, and prove the merged checkpoint is *byte-identical*
# to an unsharded ingest's. Then the failure modes: a worker killed
# mid-run costs reassignment but not correctness, and a pool that is
# entirely dead exits 8 with a typed error.
#
# Run from anywhere; needs only python + numpy. CI runs this as the
# transport-smoke job.
set -eu
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
worker_pids=""
cleanup() {
    for pid in $worker_pids; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Start one worker, record its pid in $worker_pids and its URL in $url.
start_worker() {
    local dir="$1" banner="$2"
    python -m repro.cli shard worker --workdir "$dir" --port 0 --quiet \
        >"$banner" 2>/dev/null &
    worker_pids="$worker_pids $!"
    for _ in $(seq 50); do
        url="$(sed -n 's|^listening on \(http://[^ ]*\).*|\1|p' "$banner")"
        [ -n "$url" ] && return 0
        sleep 0.1
    done
    echo "FAIL: worker never printed its listening banner"
    exit 1
}

echo "==> generate a tiny study"
python -m repro.cli generate --users 3 --days 4 --seed 11 \
    --out "$workdir/study.npz"

echo "==> unsharded ingest (the reference checkpoint)"
python -m repro.cli ingest --dataset "$workdir/study.npz" \
    --checkpoint "$workdir/plain.ckpt.npz" >/dev/null

echo "==> start two shard workers on ephemeral ports"
start_worker "$workdir/w0" "$workdir/w0.banner"; u0="$url"
start_worker "$workdir/w1" "$workdir/w1.banner"; u1="$url"
echo "    workers: $u0 $u1"

echo "==> sharded ingest over the HTTP worker pool"
python -m repro.cli ingest --dataset "$workdir/study.npz" --shards 3 \
    --checkpoint "$workdir/http.ckpt.npz" --workers "$u0,$u1" >/dev/null

echo "==> merged checkpoint is byte-identical to the unsharded one"
cmp "$workdir/http.ckpt.npz" "$workdir/plain.ckpt.npz" || {
    echo "FAIL: HTTP-sharded checkpoint differs from the unsharded one"
    exit 1
}
echo "    byte-identical"

echo "==> and it derives the unsharded store key (warm --store-only hit)"
python -m repro.cli figure fig3 --from-checkpoint "$workdir/plain.ckpt.npz" \
    --store "$workdir/store" >/dev/null
python -m repro.cli figure fig3 --from-checkpoint "$workdir/http.ckpt.npz" \
    --store "$workdir/store" --store-only >/dev/null || {
    echo "FAIL: store miss — the remote transport changed the store key"
    exit 1
}
echo "    warm hit via the remote-transport key"

echo "==> a worker killed mid-run is reassigned, the merge stays exact"
# Fresh plan + shard dir; kill worker 0 as soon as the run starts, so
# its queue drains to the survivor.
python -m repro.cli shard plan --dataset "$workdir/study.npz" --shards 4 \
    --out "$workdir/plan.json" >/dev/null
set -- $worker_pids
victim_pid="$1"
( sleep 0.5; kill "$victim_pid" 2>/dev/null || true ) &
python -m repro.cli shard run "$workdir/plan.json" \
    --workers "$u0,$u1" --quiet \
    --metrics-json "$workdir/kill.metrics.json"
python -m repro.cli shard merge "$workdir/plan.json" \
    --out "$workdir/killed.ckpt.npz" >/dev/null
cmp "$workdir/killed.ckpt.npz" "$workdir/plain.ckpt.npz" || {
    echo "FAIL: merge after a mid-run worker kill differs"
    exit 1
}
python - "$workdir/kill.metrics.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters.get("shard.completed", 0) == 4, counters
print(
    "    exact merge; worker_deaths=%d reassignments=%d"
    % (
        counters.get("transport.worker_deaths", 0),
        counters.get("transport.reassignments", 0),
    )
)
EOF

echo "==> a fully dead pool fails typed with exit 8"
python -m repro.cli shard plan --dataset "$workdir/study.npz" --shards 2 \
    --out "$workdir/dead.json" >/dev/null
set +e
python -m repro.cli shard run "$workdir/dead.json" \
    --workers "http://127.0.0.1:9,http://127.0.0.1:10" --quiet \
    2>"$workdir/dead.err"
code=$?
set -e
if [ "$code" != 8 ]; then
    echo "FAIL: dead pool exited $code, wanted 8"
    cat "$workdir/dead.err"
    exit 1
fi
grep -q "could not be placed" "$workdir/dead.err" || {
    echo "FAIL: no typed transport error on stderr"; cat "$workdir/dead.err"
    exit 1
}
echo "    exit 8 with a typed error naming the shards"

echo "transport smoke: OK"
