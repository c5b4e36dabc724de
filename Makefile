GO ?= go

# BENCH_BASELINE names the tracked perf baseline this branch records and
# gates against. Bump it once per PR that intentionally moves perf;
# benchjson's compare mode also auto-discovers the highest-numbered
# BENCH_<n>.json when invoked without -baseline.
BENCH_BASELINE ?= BENCH_10.json

.PHONY: all build test race bench bench-kernels bench-json bench-check bench-harness vet chaos resume smoke serve-smoke ingest-smoke shard-smoke

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
# whole-pipeline sanity check (graph build, encoders, LP, SAGE, eval).
smoke:
	$(GO) run ./examples/quickstart

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

# shard-smoke is the crash-safety gate for the sharded batch build: the
# same `trail build -shards N` run twice — once uninterrupted, once
# kill -9'd mid-build and restarted with -resume-shards — must produce
# bit-identical merged snapshots, and two seeded -shard-chaos runs must
# agree byte-for-byte with identical poisoned-shard accounting. See
# DESIGN.md §3i.
shard-smoke:
	bash scripts/shard_smoke.sh

vet:
	$(GO) vet ./...
