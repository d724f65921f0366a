#!/usr/bin/env bash
# End-to-end smoke test of the serving contract (docs/SERVING.md):
# generate a tiny study, ingest it to a checkpoint, start `repro serve`
# against a fresh store, and curl every endpoint class — 200 with an
# ETag, 304 on revalidation, 404 with a reason for per-packet figures.
# The served readout must equal a batch study's in every field but the
# study id, and each served figure, table and headline body must equal
# what the CLI prints for it, batch and from the checkpoint.
# Warm 200s must leave the store index byte-for-byte unchanged, and
# `repro store ls` must list the live store. An invalidate run from the
# shell must reach the server's pooled index reads: the next GET
# re-renders the same bytes and ETag. A 405 must close its connection.
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

# expect_entries N: `repro store ls` lists N entries.
expect_entries() {
    python -m repro.cli store --store "$workdir/store" ls >"$workdir/ls.out"
    grep -q "^$1 entries\$" "$workdir/ls.out" \
        || { echo "FAIL: store ls should list $1 entries"; cat "$workdir/ls.out"; exit 1; }
}

# get_table1 NAME: GET /tables/table1 into NAME.body, its ETag into NAME.etag.
get_table1() {
    got="$(curl -s -D "$workdir/$1.head" -o "$workdir/$1.body" \
        -w '%{http_code}' "$base/tables/table1")"
    [ "$got" = 200 ] || { echo "FAIL: /tables/table1 returned $got"; exit 1; }
    tr -d '\r' <"$workdir/$1.head" | sed -n 's/^ETag: //p' >"$workdir/$1.etag"
    [ -s "$workdir/$1.etag" ] || { echo "FAIL: no ETag on /tables/table1"; exit 1; }
}

echo "==> an invalidate from another process reaches the server's reads"
get_table1 before
python -m repro.cli store --store "$workdir/store" invalidate --analysis table1 \
    >/dev/null || { echo "FAIL: store invalidate exited non-zero"; exit 1; }
expect_entries 2
get_table1 after
cmp -s "$workdir/before.body" "$workdir/after.body" \
    || { echo "FAIL: re-rendered table1 differs from the bytes served before"; exit 1; }
cmp -s "$workdir/before.etag" "$workdir/after.etag" \
    || { echo "FAIL: re-rendered table1 carries another ETag"; exit 1; }
expect_entries 3
echo "    200 $base/tables/table1 re-rendered, same bytes and ETag"

# served_equals_cli PATH ARGS...: the body served at PATH, plus the
# newline the CLI's print adds, must equal `repro ARGS...`'s stdout.
served_equals_cli() {
    path="$1"; shift
    curl -sf "$base/$path" >"$workdir/served.txt" \
        || { echo "FAIL: GET $base/$path"; exit 1; }
    echo >>"$workdir/served.txt"
    python -m repro.cli "$@" >"$workdir/cli.txt" 2>/dev/null \
        || { echo "FAIL: repro $* exited non-zero"; exit 1; }
    cmp -s "$workdir/served.txt" "$workdir/cli.txt" || {
        echo "FAIL: $base/$path differs from repro $*"
        diff "$workdir/served.txt" "$workdir/cli.txt" | head -20
        exit 1
    }
    echo "    $path == repro ${*//"$workdir"\//}"
}

echo "==> served bodies equal the batch CLI's and the checkpoint path's"
for source in "--dataset study.npz" "--from-checkpoint ck.npz"; do
    flag="${source% *}"
    file="$workdir/${source#* }"
    served_equals_cli figures/fig1 figure 1 "$flag" "$file"
    served_equals_cli figures/fig2 figure 2 "$flag" "$file"
    served_equals_cli figures/fig3 figure 3 "$flag" "$file"
    served_equals_cli tables/table1 table 1 "$flag" "$file"
done
# Batch `repro headlines` adds the per-packet headlines, which are not
# served; the served block is the checkpoint path's.
served_equals_cli headlines headlines --from-checkpoint "$workdir/ck.npz"

echo "==> the index names the study; its readout serves as JSON"
study="$(curl -s "$base/" | python -c 'import json,sys; print(json.load(sys.stdin)["study"])')"
expect_status "$base/readouts/$study" 200

echo "==> the served readout equals the batch one but for the study id"
curl -s "$base/readouts/$study" >"$workdir/served.json"
python -c '
import json, sys
from repro import StudyEnergy
from repro.store import render_analysis
from repro.trace.dataset import Dataset
served = json.load(open(sys.argv[1]))
batch = json.loads(render_analysis("readout", StudyEnergy(Dataset.load(sys.argv[2]))))
diff = sorted(k for k in set(served) | set(batch) if served.get(k) != batch.get(k))
if diff != ["study"]:
    sys.exit(f"FAIL: served and batch readouts differ in {diff}, not only study")
' "$workdir/served.json" "$workdir/study.npz"

echo "==> conditional GET revalidates for free (304)"
etag="$(curl -s -D - -o /dev/null "$base/figures/fig3" \
    | tr -d '\r' | sed -n 's/^ETag: //p')"
[ -n "$etag" ] || { echo "FAIL: no ETag on /figures/fig3"; exit 1; }
expect_status "$base/figures/fig3" 304 -H "If-None-Match: $etag"

echo "==> a HEAD is a 405 that closes its connection"
curl -sI "$base/figures/fig3" | tr -d '\r' >"$workdir/head.out"
grep -q '^HTTP/1.1 405' "$workdir/head.out" \
    || { echo "FAIL: HEAD is not a 405"; cat "$workdir/head.out"; exit 1; }
grep -qi '^Connection: close$' "$workdir/head.out" \
    || { echo "FAIL: the 405 keeps its connection"; cat "$workdir/head.out"; exit 1; }
echo "    405 HEAD $base/figures/fig3 (Connection: close)"

echo "==> per-packet figures refuse with 404, not wrong numbers"
expect_status "$base/figures/fig4" 404
expect_status "$base/readouts/not-the-study" 404

echo "serve smoke: OK"
