#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the serving layer on a tiny world:
# train one epoch, start the daemon, hit every endpoint, assert 200s and
# well-formed JSON, require concurrent answers for one key to match the
# single answer byte for byte, exercise a reload, and run a short loadgen
# burst.
# Needs: go, curl; uses jq for JSON assertions when available.
set -euo pipefail

PORT="${TRAIL_SMOKE_PORT:-8099}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "serve-smoke: $*"; }
fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

# json_has FILE EXPR — assert the file is valid JSON containing EXPR
# (a jq path when jq exists, otherwise a fixed substring).
json_has() {
  if command -v jq >/dev/null 2>&1; then
    jq -e "$2" <"$1" >/dev/null || fail "$1 is not JSON with $2: $(cat "$1")"
  else
    grep -q "$3" "$1" || fail "$1 missing $3: $(cat "$1")"
  fi
}

say "building trail"
go build -o "$WORK/trail" ./cmd/trail

say "training a 1-epoch model on the tiny world"
"$WORK/trail" train -months 8 -events 10 -fast -epochs 1 -f32 -dir "$WORK/ckpt" >"$WORK/train.log" 2>&1 \
  || { cat "$WORK/train.log" >&2; fail "train"; }

say "starting the daemon on :$PORT"
"$WORK/trail" serve -months 8 -events 10 -dir "$WORK/ckpt" -addr "127.0.0.1:$PORT" >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log" >&2; fail "daemon died during startup"; }
  sleep 0.2
done
curl -sf "$BASE/healthz" >"$WORK/health.json" || { cat "$WORK/serve.log" >&2; fail "healthz never came up"; }
json_has "$WORK/health.json" '.status == "ok"' '"status":"ok"'

grep -q "float32 model" "$WORK/serve.log" || fail "daemon did not pick the float32 checkpoint"

say "GET /v1/stats"
curl -sf "$BASE/v1/stats" >"$WORK/stats.json"
json_has "$WORK/stats.json" '.epoch == 1 and .precision == "float32" and .events > 0' '"epoch":1'

say "GET /v1/sample"
curl -sf "$BASE/v1/sample?kind=event&limit=4" >"$WORK/sample.json"
json_has "$WORK/sample.json" '.keys | length > 0' '"keys":['
if command -v jq >/dev/null 2>&1; then
  KEY="$(jq -r '.keys[0]' <"$WORK/sample.json")"
else
  KEY="$(sed -n 's/.*"keys":\["\([^"]*\)".*/\1/p' "$WORK/sample.json")"
fi
[ -n "$KEY" ] || fail "no sample key"

say "POST /v1/attribute ($KEY)"
curl -sf -X POST "$BASE/v1/attribute" -d "{\"kind\":\"event\",\"key\":\"$KEY\",\"top_k\":3}" >"$WORK/attr.json"
json_has "$WORK/attr.json" '.predictions | length == 3' '"predictions":['
json_has "$WORK/attr.json" '.epoch == 1 and .precision == "float32"' '"precision":"float32"'

say "16 concurrent POSTs of $KEY answer byte-identically at epoch 1"
PIDS=()
for i in $(seq 1 16); do
  curl -sf -X POST "$BASE/v1/attribute" -d "{\"kind\":\"event\",\"key\":\"$KEY\",\"top_k\":3}" >"$WORK/attr.$i.json" &
  PIDS+=($!)
done
for pid in "${PIDS[@]}"; do
  wait "$pid" || fail "a concurrent attribute request failed"
done
for i in $(seq 1 16); do
  cmp -s "$WORK/attr.json" "$WORK/attr.$i.json" \
    || fail "concurrent answer $i differs from the single answer: $(cat "$WORK/attr.$i.json")"
done

say "POST /v1/attribute error shape"
CODE="$(curl -s -o "$WORK/err.json" -w '%{http_code}' -X POST "$BASE/v1/attribute" -d '{"kind":"event","key":"no-such"}')"
[ "$CODE" = 404 ] || fail "unknown key returned $CODE"
json_has "$WORK/err.json" '.error.code == "not_found"' '"code":"not_found"'

say "POST /v1/reload"
curl -sf -X POST "$BASE/v1/reload" >"$WORK/reload.json"
json_has "$WORK/reload.json" '.epoch == 2' '"epoch":2'

say "loadgen burst"
"$WORK/trail" loadgen -url "$BASE" -c 16 -duration 2s -out "$WORK/loadgen.json"
json_has "$WORK/loadgen.json" '.errors == 0 and .requests > 0' '"errors": 0'

say "GET /metrics"
curl -sf "$BASE/metrics" >"$WORK/metrics.txt"
for m in trail_http_requests_total trail_attribute_requests_total trail_snapshot_epoch trail_reloads_total; do
  grep -q "^$m" "$WORK/metrics.txt" || fail "/metrics missing $m"
done

say "graceful shutdown"
kill -TERM "$SERVER_PID"
for _ in $(seq 1 50); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.2
done
kill -0 "$SERVER_PID" 2>/dev/null && fail "daemon ignored SIGTERM"
SERVER_PID=""
grep -q "serve: stopped" "$WORK/serve.log" || fail "missing drain log"

say "OK"
