#!/usr/bin/env bash
# deadcode.sh — fail on internal/ functions that no program links.
#
#   bash scripts/deadcode.sh
#
# Builds every program (./cmd/..., ./examples/... and perfbench) with
# inlining off, so each function a program can call keeps its own text
# symbol, and collects the trail/internal/... symbols that `go tool nm`
# prints. Every non-test func declared under internal/ (mattest is test
# support and exempt) must be among them or listed in
# scripts/deadcode.allow, one `symbol  # reason` per line, where the
# reason names the test that uses it. An allowlist entry that is linked
# or no longer declared fails too, so the list cannot go stale.
#
# Symbols read `internal/<pkg>.Func` or `internal/<pkg>.Type.Method`:
# no pointer star, type parameters or closure suffixes.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=scripts/deadcode.allow
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -gcflags=all=-l -o "$WORK/" ./cmd/... ./examples/...
(cd perfbench && go build -gcflags=all=-l -o "$WORK/perfbench" .)

# Linked: text symbols of the module's internal packages, normalised.
for bin in "$WORK"/*; do
	go tool nm "$bin"
done | awk '$2 == "T" || $2 == "t" { print $3 }' |
	grep '^trail/internal/' |
	sed -E ':a; s/\[[^][]*\]//g; ta' |
	sed -E 's/^trail\///; s/\((\*?)([A-Za-z0-9_]+)\)/\2/; s/-fm$//;
		s/\.(func|gowrap|deferwrap)[0-9]+.*$//; s/\.init\.[0-9]+$/.init/' |
	sort -u >"$WORK/linked"

# Declared: every func and method in non-test internal/ files.
find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/mat/mattest/*' | sort |
	while read -r f; do
		sed -nE 's/^func (\(([A-Za-z_][A-Za-z0-9_]* )?(\*?)([A-Za-z_][A-Za-z0-9_]*)(\[[^]]*\])?\) )?([A-Za-z_][A-Za-z0-9_]*).*/\3|\4|\6/p' "$f" |
			awk -F'|' -v pkg="$(dirname "$f")" '{ print pkg "." ($2 == "" ? "" : $2 ".") $3 }'
	done | sort -u >"$WORK/declared"

sed -E 's/#.*//; s/[[:space:]]+$//; /^$/d' "$ALLOW" | sort -u >"$WORK/allowed"

comm -23 "$WORK/declared" "$WORK/linked" >"$WORK/unlinked"
dead="$(comm -23 "$WORK/unlinked" "$WORK/allowed")"
stale="$(comm -13 "$WORK/unlinked" "$WORK/allowed")"

status=0
if [ -n "$dead" ]; then
	echo "deadcode: declared in internal/ but linked by no program:"
	echo "$dead" | sed 's/^/  /'
	status=1
fi
if [ -n "$stale" ]; then
	echo "deadcode: $ALLOW entries that are linked or no longer declared:"
	echo "$stale" | sed 's/^/  /'
	status=1
fi
if [ "$status" = 0 ]; then
	echo "deadcode: ok: $(wc -l <"$WORK/declared") declarations, $(wc -l <"$WORK/allowed") allowlisted"
fi
exit "$status"
