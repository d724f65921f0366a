#!/usr/bin/env bash
# End-to-end smoke test of the live-monitoring contract
# (docs/MONITORING.md): tail growing per-user CSVs with `repro follow`
# (packets and events appended in writes torn mid-line), see a
# streaming headline, SIGTERM the follower (exit 6), resume it
# (`--resume`), and prove the published live windows are byte-identical
# to a follower that was never interrupted. Finishes by serving the
# live store with `repro serve --live` and curling the /live routes.
#
# Run from anywhere; needs only python + numpy + curl. CI runs this as
# the follow-smoke job.
set -eu
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
follow_pid=""
serve_pid=""
cleanup() {
    [ -n "$follow_pid" ] && kill "$follow_pid" 2>/dev/null || true
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

WINDOW="short=14400:3600"

echo "==> synthesise a tiny study as per-user CSV tails"
# The live-store key fingerprints fold in the tailed paths (the
# source signature), so the reference run and the interrupted run must
# tail the SAME files: write the full CSVs, run the reference over
# them, then cut the packets and the events back for the live run.
python - "$workdir" <<'EOF'
import sys
from pathlib import Path

from repro import StudyConfig, generate_study
from repro.trace.io_text import write_events_csv, write_packets_csv

work = Path(sys.argv[1])
dataset = generate_study(StudyConfig(n_users=2, duration_days=2.0, seed=23))
(work / "live").mkdir()


def mid_line(data, at):
    """A byte cut at or after ``at`` that tears a line: never just past
    a line end, never between a CR and its LF."""
    while data[at - 1 : at] in (b"\n", b"\r") or data[at : at + 1] == b"\n":
        at += 1
    return at


def stash(name, data, first, second):
    """The live run starts from data[:first]; the rest arrives in two
    appends, split at ``second``."""
    (work / f"half_{name}").write_bytes(data[:first])
    (work / f"rest1_{name}").write_bytes(data[first:second])
    (work / f"rest2_{name}").write_bytes(data[second:])


for user in dataset.users:
    uid = user.user_id
    packets = work / "live" / f"u{uid}.csv"
    events = work / "live" / f"u{uid}.events.csv"
    write_packets_csv(packets, user.packets, dataset.registry)
    write_events_csv(events, user.events, dataset.registry)
    # Packets: torn mid-line at ~1/2 and at ~3/4 of the file.
    data = packets.read_bytes()
    half, three_quarters = len(data) // 2, 3 * len(data) // 4
    stash(
        packets.name,
        data,
        mid_line(data, half),
        mid_line(data, three_quarters),
    )
    # Events: torn inside the app name of an input row. The writer puts
    # input rows after every process row, so the packets read meanwhile
    # get the reference's labels; a torn name read as an app would
    # register it and shift every later app id.
    data = events.read_bytes()
    inputs = data.index(b",input,")
    torn = data.index(b",input,", (inputs + len(data)) // 2) + 12
    stash(events.name, data, torn, mid_line(data, (torn + len(data)) // 2))
EOF

users_live=""
for u in "$workdir"/live/u*.csv; do
    [ "${u%.events.csv}" = "$u" ] || continue
    name="$(basename "$u")"
    users_live="$users_live --user $workdir/live/$name:$workdir/live/${name%.csv}.events.csv"
done

echo "==> reference: follow the complete tails to idle, publish to a store"
# shellcheck disable=SC2086
python -m repro.cli follow $users_live \
    --checkpoint "$workdir/ref.ckpt.npz" --store "$workdir/refstore" \
    --window "$WINDOW" --poll-interval 0.05 --idle-exit 2 \
    >"$workdir/ref.out"
grep -q "\[short #" "$workdir/ref.out" || {
    echo "FAIL: reference run emitted no headline"; cat "$workdir/ref.out"; exit 1;
}

echo "==> rewind the packets and events tails to a cut in mid-line"
for half in "$workdir"/half_u*; do
    cp "$half" "$workdir/live/${half##*half_}"
done

echo "==> live: follow the half-written tails in the background"
# shellcheck disable=SC2086
python -m repro.cli follow $users_live \
    --checkpoint "$workdir/live.ckpt.npz" --store "$workdir/livestore" \
    --window "$WINDOW" --poll-interval 0.1 \
    >"$workdir/live.out" 2>&1 &
follow_pid=$!

for _ in $(seq 1 100); do
    grep -q "\[short #" "$workdir/live.out" 2>/dev/null && break
    kill -0 "$follow_pid" 2>/dev/null || {
        echo "follower exited early:"; cat "$workdir/live.out"; exit 1;
    }
    sleep 0.2
done
grep -q "\[short #" "$workdir/live.out" || {
    echo "FAIL: no live headline appeared"; cat "$workdir/live.out"; exit 1;
}
echo "    live headline seen: $(grep -m1 '\[short #' "$workdir/live.out")"

echo "==> append the rest in two writes, each torn mid-line"
# The follower polls between the writes (--poll-interval 0.1) and must
# hold the torn packets and events lines back.
for rest in "$workdir"/rest1_u*; do
    cat "$rest" >> "$workdir/live/${rest##*rest1_}"
done
sleep 0.5
for rest in "$workdir"/rest2_u*; do
    cat "$rest" >> "$workdir/live/${rest##*rest2_}"
done
sleep 1

echo "==> SIGTERM the follower: it must checkpoint and exit 6"
kill -TERM "$follow_pid"
rc=0; wait "$follow_pid" || rc=$?
follow_pid=""
[ "$rc" = 6 ] || {
    echo "FAIL: SIGTERM exit code $rc, wanted 6"; cat "$workdir/live.out"; exit 1;
}
[ -f "$workdir/live.ckpt.npz" ] || { echo "FAIL: no checkpoint"; exit 1; }
echo "    exit 6, checkpoint on disk"

echo "==> resume to idle; the published windows must match the reference"
# shellcheck disable=SC2086
python -m repro.cli follow $users_live \
    --checkpoint "$workdir/live.ckpt.npz" --store "$workdir/livestore" \
    --window "$WINDOW" --poll-interval 0.05 --idle-exit 2 --resume \
    >"$workdir/resume.out"

cmp "$workdir/refstore/live.json" "$workdir/livestore/live.json" || {
    echo "FAIL: live.json differs between interrupted and reference runs"
    diff "$workdir/refstore/live.json" "$workdir/livestore/live.json" || true
    exit 1
}
echo "    live.json byte-identical"

# Blob files are named by the store-key digest, and live keys fold the
# window's fold digest into the fingerprint — so an interrupted-and-
# resumed follower must produce the *same file names with the same
# bytes* as the uninterrupted reference.
python - "$workdir" <<'EOF'
import sys
from pathlib import Path

work = Path(sys.argv[1])
def blobs(store):
    return {
        p.name: p.read_bytes()
        for p in sorted((work / store / "blobs").iterdir())
        if p.suffix in (".txt", ".json")
    }
ref, live = blobs("refstore"), blobs("livestore")
assert ref, "reference store published nothing"
assert ref.keys() == live.keys(), (
    f"blob sets differ: {sorted(ref.keys() ^ live.keys())}"
)
for name, data in ref.items():
    assert live[name] == data, f"blob {name} differs byte-wise"
print(f"    {len(ref)} published blob(s) byte-identical across runs")
EOF

echo "==> serve the live store and curl the /live routes"
python -m repro.cli serve --live --store "$workdir/livestore" --port 0 --quiet \
    >"$workdir/serve.out" 2>&1 &
serve_pid=$!
base=""
for _ in $(seq 1 50); do
    if grep -q "serving live windows" "$workdir/serve.out" 2>/dev/null; then
        base="$(sed -n 's/.* on \(http:[^ ]*\).*/\1/p' "$workdir/serve.out")"
        break
    fi
    kill -0 "$serve_pid" 2>/dev/null || {
        echo "serve exited early:"; cat "$workdir/serve.out"; exit 1;
    }
    sleep 0.2
done
[ -n "$base" ] || { echo "no serve banner:"; cat "$workdir/serve.out"; exit 1; }

expect_status() {
    url="$1"; want="$2"; shift 2
    got="$(curl -s -o /dev/null -w '%{http_code}' "$@" "$url")"
    if [ "$got" != "$want" ]; then
        echo "FAIL: $url returned $got, wanted $want"
        exit 1
    fi
    echo "    $want $url"
}

expect_status "$base/live/" 200
expect_status "$base/live/short/headlines" 200
etag="$(curl -s -D - -o /dev/null "$base/live/short/headlines" \
    | tr -d '\r' | sed -n 's/^ETag: //p')"
[ -n "$etag" ] || { echo "FAIL: no ETag on /live/short/headlines"; exit 1; }
expect_status "$base/live/short/headlines" 304 -H "If-None-Match: $etag"
expect_status "$base/live/nope/headlines" 404
expect_status "$base/headlines" 404   # live-only server: no study loaded

echo "follow smoke: OK"
