#!/usr/bin/env bash
# loc.sh prints the Go line count of every package directory in the
# module, split into non-test (*.go) and test (*_test.go) lines, then the
# totals. perfbench/ is a separate module and is left out.
#
#   bash scripts/loc.sh [module-root]
#
# Diff the output of two checkouts to get the per-package net delta of a
# change.
set -euo pipefail
cd "${1:-.}"

find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/^\.\//, "", dir)
		if (dir ~ /\//) sub(/\/[^\/]*$/, "", dir); else dir = "."
		if ($2 ~ /_test\.go$/) test[dir] += $1; else code[dir] += $1
		seen[dir] = 1
	}
	END { for (d in seen) printf "%s %d %d\n", d, code[d], test[d] }' |
	sort |
	awk 'BEGIN { printf "%-28s %8s %8s\n", "package", "code", "test" }
	{ printf "%-28s %8d %8d\n", $1, $2, $3; c += $2; t += $3 }
	END { printf "%-28s %8d %8d\n", "total", c, t }'
