#!/usr/bin/env bash
# experiments_check.sh — byte-identity gate for `trail experiments`: build
# the CLI, run the fast evaluation on a small world, and diff its stdout
# against the committed golden. A refactor that changes any attribution
# answer, table row or rendered figure fails here.
#
#   bash scripts/experiments_check.sh           # check
#   bash scripts/experiments_check.sh -update   # re-record the golden
#
# The golden is recorded on amd64. Other architectures skip the check:
# Go fuses multiply-adds there, so the last bits of float results differ.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=cmd/trail/testdata/experiments_fast.golden
ARGS=(experiments -fast -months 14 -events 12)

say() { echo "experiments-check: $*"; }

if [ "$(go env GOARCH)" != amd64 ]; then
  say "skipped: golden is amd64-only (GOARCH=$(go env GOARCH) fuses multiply-adds)"
  exit 0
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
go build -o "$WORK/trail" ./cmd/trail
"$WORK/trail" "${ARGS[@]}" >"$WORK/out.txt"

if [ "${1:-}" = -update ]; then
  cp "$WORK/out.txt" "$GOLDEN"
  say "recorded $GOLDEN"
  exit 0
fi
if ! diff -u "$GOLDEN" "$WORK/out.txt"; then
  say "FAIL: \`trail ${ARGS[*]}\` output differs from $GOLDEN"
  exit 1
fi
say "ok: output matches $GOLDEN"
