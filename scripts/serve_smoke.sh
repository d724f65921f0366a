#!/usr/bin/env bash
# End-to-end smoke test of the serving contract (docs/SERVING.md):
# generate a tiny study, ingest it to a checkpoint, start `repro serve`
# against a fresh store, and curl every endpoint class — 200 with an
# ETag, 304 on revalidation, 404 with a reason for per-packet figures.
# Warm 200s must leave the store index byte-for-byte unchanged, and
# `repro store ls` must list the live store.
#
# Run from anywhere; needs only python + numpy + curl. CI runs this as
# the serve-smoke job.
set -eu
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> generate + ingest a tiny study"
python -m repro.cli generate --users 2 --days 4 --seed 11 \
    --out "$workdir/study.npz"
python -m repro.cli ingest --dataset "$workdir/study.npz" \
    --checkpoint "$workdir/ck.npz" >/dev/null

echo "==> start repro serve on an ephemeral port"
python -m repro.cli serve --from-checkpoint "$workdir/ck.npz" \
    --store "$workdir/store" --port 0 --quiet \
    >"$workdir/serve.out" 2>&1 &
serve_pid=$!

# The banner line is "serving study <id> on http://host:port (store: …)".
base=""
for _ in $(seq 1 50); do
    if grep -q "serving study" "$workdir/serve.out" 2>/dev/null; then
        base="$(sed -n 's/.* on \(http:[^ ]*\).*/\1/p' "$workdir/serve.out")"
        break
    fi
    kill -0 "$serve_pid" 2>/dev/null || {
        echo "serve exited early:"; cat "$workdir/serve.out"; exit 1;
    }
    sleep 0.2
done
[ -n "$base" ] || { echo "no serve banner:"; cat "$workdir/serve.out"; exit 1; }
echo "    $base"

expect_status() {
    url="$1"; want="$2"; shift 2
    got="$(curl -s -o /dev/null -w '%{http_code}' "$@" "$url")"
    if [ "$got" != "$want" ]; then
        echo "FAIL: $url returned $got, wanted $want"
        exit 1
    fi
    echo "    $want $url"
}

echo "==> store-backed endpoints answer 200"
expect_status "$base/" 200
expect_status "$base/figures/fig3" 200
expect_status "$base/tables/table1" 200
expect_status "$base/headlines" 200

echo "==> warm 200s are pure reads: index.sqlite is not written"
cp "$workdir/store/index.sqlite" "$workdir/index.before"
for path in figures/fig3 tables/table1 headlines figures/fig3; do
    expect_status "$base/$path" 200
done
cmp "$workdir/index.before" "$workdir/store/index.sqlite" \
    || { echo "FAIL: a warm GET wrote index.sqlite"; exit 1; }

echo "==> repro store ls lists the live store"
python -m repro.cli store --store "$workdir/store" ls >"$workdir/ls.out" \
    || { echo "FAIL: store ls exited non-zero"; cat "$workdir/ls.out"; exit 1; }
grep -Eq '^analysis +study +policy +bytes +etag *$' "$workdir/ls.out" \
    || { echo "FAIL: unexpected store ls header"; cat "$workdir/ls.out"; exit 1; }
grep -q '^3 entries$' "$workdir/ls.out" \
    || { echo "FAIL: store ls should list 3 entries"; cat "$workdir/ls.out"; exit 1; }

echo "==> the index names the study; its readout serves as JSON"
study="$(curl -s "$base/" | python -c 'import json,sys; print(json.load(sys.stdin)["study"])')"
expect_status "$base/readouts/$study" 200

echo "==> conditional GET revalidates for free (304)"
etag="$(curl -s -D - -o /dev/null "$base/figures/fig3" \
    | tr -d '\r' | sed -n 's/^ETag: //p')"
[ -n "$etag" ] || { echo "FAIL: no ETag on /figures/fig3"; exit 1; }
expect_status "$base/figures/fig3" 304 -H "If-None-Match: $etag"

echo "==> per-packet figures refuse with 404, not wrong numbers"
expect_status "$base/figures/fig4" 404
expect_status "$base/readouts/not-the-study" 404

echo "serve smoke: OK"
