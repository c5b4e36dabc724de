#!/usr/bin/env bash
# ingest_smoke.sh — end-to-end crash-safety smoke of the streaming ingest
# pipeline: train a tiny model, ingest the same NDJSON feed twice — once
# uninterrupted, once kill -9'd mid-stream and restarted — and assert the
# recovered run converges to a bit-identical checkpoint and identical
# attribution answers over the live serving endpoint.
# Needs: go, curl; uses jq for JSON assertions when available.
set -euo pipefail

PORT="${TRAIL_INGEST_SMOKE_PORT:-8143}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
PID=""
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "ingest-smoke: $*"; }
fail() { echo "ingest-smoke: FAIL: $*" >&2; exit 1; }

metric() { # metric NAME — print the current value from /metrics, or 0
  curl -sf "$BASE/metrics" 2>/dev/null | awk -v m="$1" '$1 == m {print $2; found=1} END {if (!found) print 0}'
}

wait_metric() { # wait_metric NAME VALUE TRIES — poll until NAME reaches VALUE
  local i
  for i in $(seq 1 "$3"); do
    [ "$(metric "$1" | cut -d. -f1)" -ge "$2" ] 2>/dev/null && return 0
    kill -0 "$PID" 2>/dev/null || fail "ingest process died waiting for $1 >= $2"
    sleep 0.2
  done
  fail "$1 never reached $2 (last: $(metric "$1"))"
}

start_ingest() { # start_ingest DIR LOG EXTRA_ARGS...
  local dir="$1" log="$2"; shift 2
  "$WORK/trail" ingest -months 8 -events 8 -dir "$dir" -feed "$WORK/feed.ndjson" \
    -addr "127.0.0.1:$PORT" -model-dir "$WORK/ckpt" -publish-every 8 "$@" \
    >"$log" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$PID" 2>/dev/null || { cat "$log" >&2; fail "ingest died during startup"; }
    sleep 0.2
  done
  cat "$log" >&2; fail "daemon never came up"
}

stop_ingest() { # stop_ingest LOG — SIGTERM and require a clean drain
  kill -TERM "$PID"
  for _ in $(seq 1 100); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.2
  done
  kill -0 "$PID" 2>/dev/null && fail "ingest ignored SIGTERM"
  PID=""
  grep -q "^ingest: accepted=" "$1" || fail "missing final stats line in $1"
}

answers() { # answers OUT — attribute every sampled event key against the live server
  local out="$1" key
  : >"$out"
  while read -r key; do
    curl -sf -X POST "$BASE/v1/attribute" -d "{\"kind\":\"event\",\"key\":\"$key\",\"top_k\":3}" \
      | sed 's/.*\("predictions":\[[^]]*\]\).*/\1/' >>"$out"
    echo >>"$out"
  done <"$WORK/keys.txt"
}

say "building trail"
go build -o "$WORK/trail" ./cmd/trail

say "training a 1-epoch model for the serving side"
"$WORK/trail" train -months 8 -events 8 -fast -epochs 1 -f32 -dir "$WORK/ckpt" >"$WORK/train.log" 2>&1 \
  || { cat "$WORK/train.log" >&2; fail "train"; }

say "generating the pulse feed"
"$WORK/trail" world -months 8 -events 8 -out "$WORK/feed.ndjson"
N="$(wc -l <"$WORK/feed.ndjson")"
[ "$N" -ge 20 ] || fail "feed too small ($N pulses)"
say "feed has $N pulses"

say "run A: uninterrupted ingest"
start_ingest "$WORK/stA" "$WORK/runA.log"
wait_metric trail_ingest_watermark_seq "$N" 150
sleep 1 # let the final cut's snapshot publish
curl -sf "$BASE/v1/sample?kind=event&limit=5" >"$WORK/sample.json"
if command -v jq >/dev/null 2>&1; then
  jq -r '.keys[]' <"$WORK/sample.json" >"$WORK/keys.txt"
else
  sed 's/.*"keys":\[//; s/\].*//; s/","/"\n"/g; s/"//g' "$WORK/sample.json" | head -5 >"$WORK/keys.txt"
fi
[ -s "$WORK/keys.txt" ] || fail "no sample keys"
answers "$WORK/answersA.txt"
grep -q '"predictions"' "$WORK/answersA.txt" || fail "run A returned no predictions"
curl -sf "$BASE/metrics" >"$WORK/metrics.txt"
for m in trail_ingest_accepted_total trail_ingest_applied_total trail_ingest_wal_bytes \
         trail_ingest_watermark_lag trail_ingest_snapshot_age_seconds trail_ingest_dirty_frontier \
         trail_ingest_cut_seconds trail_csr_patch_applied_total trail_csr_patch_fallback_total; do
  grep -q "^# TYPE $m" "$WORK/metrics.txt" || fail "/metrics missing $m"
done
PATCHED="$(metric trail_csr_patch_applied_total | cut -d. -f1)"
[ "$PATCHED" -ge 1 ] || fail "incremental CSR patching never engaged (trail_csr_patch_applied_total=$PATCHED)"
say "run A published $PATCHED patched CSR snapshots"
stop_ingest "$WORK/runA.log"

say "run B: kill -9 mid-stream"
start_ingest "$WORK/stB" "$WORK/runB1.log" -rate 25
wait_metric trail_ingest_durable_seq 6 150
DURABLE="$(metric trail_ingest_durable_seq | cut -d. -f1)"
[ "$DURABLE" -lt "$N" ] || fail "feed already complete at kill time ($DURABLE/$N) — raise the feed size"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
say "killed at durable seq $DURABLE/$N"
[ -s "$WORK/stB/events.jrn" ] || fail "no WAL left behind"

say "run B: restart and drain the rest of the feed"
start_ingest "$WORK/stB" "$WORK/runB2.log"
grep -q "resuming feed at event" "$WORK/runB2.log" || fail "feeder did not resume from the durable seq"
wait_metric trail_ingest_watermark_seq "$N" 150
sleep 1
answers "$WORK/answersB.txt"
stop_ingest "$WORK/runB2.log"

say "comparing recovered state against the uninterrupted run"
cmp "$WORK/stA/ingest.ck" "$WORK/stB/ingest.ck" \
  || fail "recovered checkpoint differs from the uninterrupted run"
diff -u "$WORK/answersA.txt" "$WORK/answersB.txt" >&2 \
  || fail "recovered attribution answers differ from the uninterrupted run"

say "OK: kill -9 at event $DURABLE converged to bit-identical state and answers"
