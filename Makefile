GO ?= go

# BENCH_BASELINE names the tracked perf baseline this branch records and
# gates against. Bump it once per PR that intentionally moves perf;
# benchjson's compare mode also auto-discovers the highest-numbered
# BENCH_<n>.json when invoked without -baseline.
BENCH_BASELINE ?= BENCH_10.json

.PHONY: all build test race bench bench-kernels bench-json bench-check bench-harness vet loc deadcode chaos resume smoke serve-smoke ingest-smoke experiments-check fuzz

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the concurrency gate for the parallel execution layer
# (internal/par workers + internal/sparse/mat kernels): vet plus the full
# suite under the race detector. The kernel equivalence tests double as
# determinism checks here — any data race or nondeterministic partition
# breaks their bit-identity assertions.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# chaos is the resilience gate: the enrichment middleware and TKG
# degradation suites re-run with aggressive fault injection (50% rates in
# the chaos-gated tests, vs 20% in a plain `make test`). See DESIGN.md §3c.
chaos:
	TRAIL_CHAOS=0.5 $(GO) test -count=1 ./internal/osint/... ./internal/core/...

# resume is the crash-recovery gate: the checkpoint envelope's corruption
# matrix, the kill-at-every-epoch bit-identity harness, and the journaled
# experiment-sweep replays. See DESIGN.md §3d.
resume:
	$(GO) test -count=1 ./internal/ckpt/...
	$(GO) test -count=1 -run 'Resume|Checkpoint|Corrupt|Truncat|Journal|Skew|Divergence|Persist|Deterministic|FineTune' \
		./internal/gnn/ ./internal/hyperopt/ ./internal/eval/ ./internal/core/ ./internal/graph/

bench:
	$(GO) test -bench=. -benchmem

bench-kernels:
	$(GO) test -bench='BenchmarkMatMul|BenchmarkSpMM|BenchmarkLabelPropagationScale' -benchmem

# bench-json re-records the tracked baseline ($(BENCH_BASELINE)). Run it
# on a quiet machine after an intentional perf change and commit the
# result. -benchtime=1x keeps the sweep short; ns/op at 1x is noisy,
# which is why the gate below uses a generous 20% threshold and alloc
# discipline is enforced by AllocsPerRun unit tests rather than here.
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchjson -out $(BENCH_BASELINE)

# bench-check is the CI perf gate: fresh short run diffed against the
# committed baseline, failing on any >=20% ns/op regression.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchjson -out bench_current.json
	$(GO) run ./cmd/benchjson -compare -baseline $(BENCH_BASELINE) -current bench_current.json -threshold 0.20

# bench-harness vets and self-tests the end-to-end benchmark harness.
# perfbench/ is its own Go module (it imports this one through a
# replace), so the root `go build ./...` never compiles it: without this
# target, removing an API the benchmark calls would only surface at the
# next benchmark run.
bench-harness:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# smoke builds and runs the quickstart example end to end — the fastest
# whole-pipeline sanity check (graph build, encoders, LP, SAGE, eval) —
# then the explainability example, which drives the Fig. 9 SHAP and
# Fig. 10 GNNExplainer experiments through their public entry points.
smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/explainability

# serve-smoke is the serving-layer gate: train a 1-epoch model on the
# tiny world, start `trail serve`, exercise every endpoint (attribute,
# stats, sample, reload, metrics), run a loadgen burst, and require a
# graceful SIGTERM drain. See DESIGN.md §3g.
serve-smoke:
	bash scripts/serve_smoke.sh

# ingest-smoke is the crash-safety gate for the streaming pipeline: the
# same NDJSON feed is ingested twice — once uninterrupted, once kill -9'd
# mid-stream and restarted — and the recovered run must converge to a
# bit-identical state checkpoint and identical attribution answers over
# the live serving endpoint. See DESIGN.md §3h.
ingest-smoke:
	bash scripts/ingest_smoke.sh

# experiments-check is the byte-identity gate for refactors: `trail
# experiments -fast -months 14 -events 12` must print exactly
# cmd/trail/testdata/experiments_fast.golden (amd64 only; other
# architectures print a skip). `bash scripts/experiments_check.sh -update`
# re-records the golden after an intended change of answers.
experiments-check:
	bash scripts/experiments_check.sh

# vet also fails on any file gofmt would rewrite, and lists those files.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l . | tee /dev/stderr)"

# fuzz runs each decoder fuzz target for 10 s (one target per
# `go test -fuzz` call, as the go command requires) on two workers:
# graph snapshots, /v1/attribute bodies and NDJSON pulse feeds. Seeds
# live in the tests; a failing input lands under the package's
# testdata/fuzz/ and re-runs in every plain `go test` from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzGraphReadFrom$$' -fuzztime 10s -parallel 2 ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzAttributeBody$$' -fuzztime 10s -parallel 2 ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzScanPulses$$' -fuzztime 10s -parallel 2 ./internal/osint/

# loc prints the non-test and test Go line counts per package (see
# scripts/loc.sh); diff it across two checkouts for a change's net delta.
loc:
	bash scripts/loc.sh

# deadcode fails on any func in internal/ that no program (cmd/, examples/,
# perfbench) links, unless scripts/deadcode.allow names the test that
# needs it; stale allowlist entries fail too. See scripts/deadcode.sh.
deadcode:
	bash scripts/deadcode.sh
