// Package shard implements the fault-tolerant partitioned TKG build: the
// world's pulse feed is cut into contiguous time windows (osint
// partitioning), each window's sub-TKG is built by a supervised worker —
// panic recovery, per-attempt timeout, capped retry with backoff, typed
// failure taxonomy — and persisted as an atomic checkpoint the moment it
// completes, so a killed build resumes from the finished shards instead
// of starting over.
//
// The merge is the part with teeth. Three properties combine to make the
// final graph byte-identical regardless of worker count, shard completion
// order, or how many crash/retry cycles occurred:
//
//  1. every build attempt of shard i runs against a FRESH services stack
//     from Config.Services(i), so no mutable enrichment state (chaos
//     streaks, breaker windows, caches) couples shards or attempts — a
//     shard's bytes are a pure function of (world, window, shard seed);
//  2. the merge phase starts only after every worker has finished and
//     reads the PERSISTED shard-%04d.ck bytes back from disk in sorted
//     shard order, so a resumed run and an uninterrupted run feed the
//     merge literally identical inputs;
//  3. core.TKG.MergeFrom remaps node IDs through a stable (kind, key)
//     table walked in source-ID order, so the stitched graph's IDs,
//     adjacency order and serialised bytes are deterministic.
//
// A shard that keeps failing is poisoned, not fatal: a tombstone
// checkpoint records the failure, its events are accounted in the report,
// and the build completes on the surviving shards. Resume re-attempts
// tombstoned shards — under a seeded chaos injector they re-poison
// identically (decisions are pure functions of the seed), preserving
// bit-identity; against real flaky infrastructure they get a second
// chance.
package shard

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"trail/internal/ckpt"
	"trail/internal/core"
	"trail/internal/metrics"
	"trail/internal/osint"
)

// ErrShardFailed marks one failed build attempt of a shard: an injected
// transient fault, a recovered panic, or an attempt timeout. The
// supervisor retries these up to Config.MaxAttempts times.
var ErrShardFailed = errors.New("shard: build attempt failed")

// ErrShardPoisoned marks a shard that exhausted its attempts (or was
// permanently failed by the chaos injector). The build continues without
// it; the report accounts for its events.
var ErrShardPoisoned = errors.New("shard: poisoned")

// Spec describes one shard of the build plan: a contiguous month window
// of the world's pulse feed.
type Spec struct {
	Index  int
	Window osint.Window
	Pulses int
}

// Plan partitions the world into up to n pulse-balanced shards. The plan
// is a pure function of (world config, n): every process run — fresh or
// resumed — plans identical shards, which is what lets a resume trust the
// checkpoints it finds on disk.
func Plan(w *osint.World, n int) ([]Spec, [][]osint.Pulse) {
	wins, parts := w.PartitionPulses(n)
	specs := make([]Spec, len(wins))
	for i, win := range wins {
		specs[i] = Spec{Index: i, Window: win, Pulses: len(parts[i])}
	}
	return specs, parts
}

// Config controls a sharded build.
type Config struct {
	// Shards is the number of partitions to plan (clamped to the number
	// of months in the world). Default 1.
	Shards int
	// Workers bounds concurrent shard builds. Default GOMAXPROCS.
	Workers int
	// Dir is where shard-%04d.ck checkpoints live. Required.
	Dir string
	// Resume loads finished shard checkpoints instead of rebuilding them.
	// Tombstones (poisoned shards) are always re-attempted.
	Resume bool
	// Build is the TKG construction config shared by all shards.
	Build core.BuildConfig
	// Services returns the enrichment stack for one build attempt of the
	// given shard. It MUST return a fresh stack per call: resilience
	// middleware and chaos injectors hold per-key mutable state, and
	// sharing one across shards (or attempts) would make a shard's bytes
	// depend on its neighbours' schedules. Nil defaults to the world's
	// infallible services.
	Services func(shard int) osint.FallibleServices
	// Timeout bounds one build attempt. 0 = no limit.
	Timeout time.Duration
	// MaxAttempts bounds build attempts per shard before it is poisoned.
	// Default 3.
	MaxAttempts int
	// Backoff is the base delay between attempts, doubled per retry with
	// deterministic jitter. Default 50ms.
	Backoff time.Duration
	// Chaos, when non-nil, injects shard-level faults (attempt failures,
	// panics, permanent poison) from a seeded deterministic injector.
	Chaos *ChaosConfig
	// Metrics, when non-nil, receives the trail_shard_* family.
	Metrics *metrics.Registry
	// OnShardDone, when non-nil, runs after shard i's checkpoint is
	// durably on disk (test hook: the kill-at-every-shard harness cancels
	// the build here).
	OnShardDone func(shard int)
	// StepDelay sleeps after each shard completion; the smoke test uses
	// it to widen the kill window. 0 in production.
	StepDelay time.Duration
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
}

// Report is the exact accounting of one sharded build. Its numbers are
// captured into each shard's checkpoint at build time, so a resumed run
// reports identical totals to an uninterrupted one.
type Report struct {
	Shards   int
	Built    int   // shards built by this run
	Resumed  int   // shards loaded from checkpoints
	Retried  int   // extra build attempts beyond the first, this run
	Poisoned []int // shard indexes that exhausted their attempts

	// PoisonedPulses counts the events a poisoned shard should have
	// contributed: the gap between the plan and the merged graph.
	PoisonedPulses int

	Pulses, Merged, Skipped int
	EnrichErrors            int64
	Degraded                int

	BuildTime time.Duration
	MergeTime time.Duration
}

// Render formats the report for CLI output.
func (r *Report) Render() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "sharded build: %d shards (%d built, %d resumed, %d retries, %d poisoned) in %v + %v merge\n",
		r.Shards, r.Built, r.Resumed, r.Retried, len(r.Poisoned), r.BuildTime.Round(time.Millisecond), r.MergeTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %d pulses (%d merged, %d skipped), %d enrichment failures, %d degraded nodes\n",
		r.Pulses, r.Merged, r.Skipped, r.EnrichErrors, r.Degraded)
	if len(r.Poisoned) > 0 {
		fmt.Fprintf(&b, "  poisoned shards %v: %d events missing from the graph\n", r.Poisoned, r.PoisonedPulses)
	}
	return b.String()
}

// Result bundles the merged TKG with the build accounting.
type Result struct {
	TKG    *core.TKG
	Report Report
}

// CheckpointKind tags shard sub-TKG checkpoints (and tombstones) inside
// the ckpt envelope.
const CheckpointKind = "shard.tkg"

const checkpointVersion = 1

// shardStats is the per-shard accounting captured at build time and
// persisted with the sub-TKG, because the TKG snapshot itself does not
// carry the build report.
type shardStats struct {
	Pulses, Merged, Skipped int
	EnrichErrors            int64
	Degraded                int
	Attempts                int
}

// envelope is the gob payload of one shard-%04d.ck: either a completed
// sub-TKG (TKG != nil) or a poison tombstone (Poisoned set, Err holding
// the final attempt's failure).
type envelope struct {
	Spec     Spec
	Stats    shardStats
	Poisoned bool
	Err      string
	TKG      []byte
}

// ckPath names shard i's checkpoint file in dir.
func ckPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.ck", i))
}

type shardMetrics struct {
	built, retried, poisoned, resumed *metrics.Counter
	mergeSeconds, peakHeap            *metrics.Gauge
}

func newShardMetrics(r *metrics.Registry) *shardMetrics {
	if r == nil {
		return nil
	}
	return &shardMetrics{
		built:        r.Counter("trail_shard_built_total", "Shards built by this process."),
		retried:      r.Counter("trail_shard_retried_total", "Extra shard build attempts beyond the first."),
		poisoned:     r.Counter("trail_shard_poisoned_total", "Shards that exhausted their attempts."),
		resumed:      r.Counter("trail_shard_resumed_total", "Shards loaded from checkpoints on resume."),
		mergeSeconds: r.Gauge("trail_shard_merge_seconds", "Wall-clock time of the last merge phase."),
		peakHeap:     r.Gauge("trail_shard_peak_heap_bytes", "Peak Go heap observed across shard builds."),
	}
}

// Build runs the full sharded pipeline: plan, supervised parallel build
// with per-shard checkpoints, then the deterministic merge. The returned
// TKG has FinalizeLabels applied and its reordered CSR view warmed.
//
// ctx cancellation stops the build between shards (finished checkpoints
// stay on disk for a later -resume-shards run) and returns ctx.Err().
func Build(ctx context.Context, w *osint.World, cfg Config) (*Result, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("shard: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	specs, parts := Plan(w, cfg.Shards)
	if len(specs) == 0 {
		return nil, fmt.Errorf("shard: empty plan (world has no months)")
	}

	sm := newShardMetrics(cfg.Metrics)
	rep := Report{Shards: len(specs)}
	buildStart := time.Now()

	b := &builder{w: w, cfg: cfg, sm: sm}

	// Resume scan: decide, per shard, whether a trustworthy checkpoint
	// already exists. Corrupt or plan-mismatched files are rebuilt (the
	// atomic envelope makes torn files detectable, not believable).
	todo := make([]int, 0, len(specs))
	for _, s := range specs {
		if cfg.Resume && b.haveCheckpoint(s) {
			rep.Resumed++
			if sm != nil {
				sm.resumed.Inc()
			}
			continue
		}
		todo = append(todo, s.Index)
	}

	// Supervised build pool.
	var (
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < cfg.Workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				attempts, err := b.buildShard(ctx, specs[i], parts[i])
				mu.Lock()
				if attempts > 1 {
					rep.Retried += attempts - 1
				}
				switch {
				case err == nil:
					rep.Built++
				case errors.Is(err, ErrShardPoisoned):
					rep.Poisoned = append(rep.Poisoned, i)
				default: // ctx cancellation or checkpoint I/O
					if firstErr == nil {
						firstErr = err
					}
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for _, i := range todo {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.BuildTime = time.Since(buildStart)
	sort.Ints(rep.Poisoned)

	// Merge phase: sorted shard order, persisted bytes only.
	mergeStart := time.Now()
	tkg := core.NewTKG(w, w.Resolver(), cfg.Build)
	for _, s := range specs {
		env, err := b.loadEnvelope(s)
		if err != nil {
			return nil, err
		}
		rep.Pulses += env.Stats.Pulses
		rep.Skipped += env.Stats.Skipped
		if env.Poisoned {
			// A shard poisoned in an earlier run, resumed into this one.
			if !contains(rep.Poisoned, s.Index) {
				mu.Lock()
				rep.Poisoned = append(rep.Poisoned, s.Index)
				sort.Ints(rep.Poisoned)
				mu.Unlock()
			}
			rep.PoisonedPulses += s.Pulses
			continue
		}
		rep.Merged += env.Stats.Merged
		rep.EnrichErrors += env.Stats.EnrichErrors
		sub, err := core.ReadTKGFallible(bytes.NewReader(env.TKG), osint.Infallible(w), w.Resolver())
		if err != nil {
			return nil, fmt.Errorf("shard %d: decode sub-TKG: %w", s.Index, err)
		}
		if _, err := tkg.MergeFrom(sub); err != nil {
			return nil, fmt.Errorf("shard %d: merge: %w", s.Index, err)
		}
	}
	if sm != nil {
		sm.poisoned.Add(uint64(len(rep.Poisoned)))
	}
	tkg.FinalizeLabels()
	rep.Degraded = tkg.Report().Degraded()
	// Warm the cache-aware reordered CSR view so downstream analysis
	// (label propagation, GNN inference) starts from the permuted layout.
	tkg.G.CSRReordered()
	rep.MergeTime = time.Since(mergeStart)
	if sm != nil {
		sm.mergeSeconds.Set(rep.MergeTime.Seconds())
	}
	return &Result{TKG: tkg, Report: rep}, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// builder holds the per-run state shared by the workers.
type builder struct {
	w   *osint.World
	cfg Config
	sm  *shardMetrics

	peakMu   sync.Mutex
	peakHeap uint64
}

// haveCheckpoint reports whether shard s has a valid, plan-matching,
// non-tombstone checkpoint on disk.
func (b *builder) haveCheckpoint(s Spec) bool {
	env, err := b.loadEnvelopeRaw(s)
	return err == nil && !env.Poisoned
}

// loadEnvelopeRaw reads and validates shard s's checkpoint.
func (b *builder) loadEnvelopeRaw(s Spec) (*envelope, error) {
	payload, err := ckpt.Load(ckPath(b.cfg.Dir, s.Index), CheckpointKind, checkpointVersion)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env); err != nil {
		return nil, fmt.Errorf("shard %d: decode envelope: %w", s.Index, err)
	}
	if env.Spec != s {
		return nil, fmt.Errorf("shard %d: checkpoint is for plan %+v, current plan is %+v (stale -shard-dir?)",
			s.Index, env.Spec, s)
	}
	return &env, nil
}

// loadEnvelope is loadEnvelopeRaw with merge-phase error context.
func (b *builder) loadEnvelope(s Spec) (*envelope, error) {
	env, err := b.loadEnvelopeRaw(s)
	if err != nil {
		return nil, fmt.Errorf("shard %d: load checkpoint: %w", s.Index, err)
	}
	return env, nil
}

// saveEnvelope persists shard s's outcome atomically.
func (b *builder) saveEnvelope(env *envelope) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return fmt.Errorf("shard %d: encode envelope: %w", env.Spec.Index, err)
	}
	if err := ckpt.Save(ckPath(b.cfg.Dir, env.Spec.Index), CheckpointKind, checkpointVersion, buf.Bytes()); err != nil {
		return fmt.Errorf("shard %d: save checkpoint: %w", env.Spec.Index, err)
	}
	return nil
}

// services returns a fresh enrichment stack for one attempt of shard i.
func (b *builder) services(i int) osint.FallibleServices {
	if b.cfg.Services != nil {
		return b.cfg.Services(i)
	}
	return osint.Infallible(b.w)
}

// buildShard supervises the attempts of one shard: chaos gates, panic
// recovery, per-attempt timeout, capped retry with jittered backoff.
// Returns the number of attempts made and nil, ErrShardPoisoned (already
// tombstoned), a context error, or a checkpoint I/O error.
func (b *builder) buildShard(ctx context.Context, s Spec, pulses []osint.Pulse) (int, error) {
	var lastErr error
	made := 0 // attempts actually run (retry accounting)
	for attempt := 1; attempt <= b.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return made, err
		}
		if attempt > 1 {
			if b.sm != nil {
				b.sm.retried.Inc()
			}
			if err := b.backoff(ctx, s.Index, attempt); err != nil {
				return made, err
			}
		}
		if b.cfg.Chaos.poisons(s.Index) {
			lastErr = fmt.Errorf("%w: injected permanent fault", ErrShardPoisoned)
			break
		}
		made++
		env, err := b.attempt(ctx, s, pulses, attempt)
		if err == nil {
			env.Stats.Attempts = attempt
			if err := b.saveEnvelope(env); err != nil {
				return made, err
			}
			if b.sm != nil {
				b.sm.built.Inc()
			}
			b.stepDone(s.Index)
			return made, nil
		}
		if !errors.Is(err, ErrShardFailed) {
			return made, err // context cancellation: leave no tombstone
		}
		lastErr = err
	}
	// Attempts exhausted (or chaos poisoned): tombstone the shard so the
	// merge can account for it and a resume knows to re-attempt it.
	if lastErr == nil || !errors.Is(lastErr, ErrShardPoisoned) {
		lastErr = fmt.Errorf("%w: %v", ErrShardPoisoned, lastErr)
	}
	env := &envelope{
		Spec:     s,
		Stats:    shardStats{Pulses: len(pulses), Attempts: made},
		Poisoned: true,
		Err:      lastErr.Error(),
	}
	if err := b.saveEnvelope(env); err != nil {
		return made, err
	}
	b.stepDone(s.Index)
	return made, lastErr
}

// attempt runs one supervised build of shard s: fresh services, optional
// timeout, panic recovery, chaos transient faults.
func (b *builder) attempt(ctx context.Context, s Spec, pulses []osint.Pulse, n int) (env *envelope, err error) {
	if b.cfg.Chaos.failsAttempt(s.Index, n) {
		return nil, fmt.Errorf("%w: injected transient fault (shard %d attempt %d)", ErrShardFailed, s.Index, n)
	}
	actx := ctx
	if b.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, b.cfg.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			env, err = nil, fmt.Errorf("%w: panic: %v (shard %d attempt %d)", ErrShardFailed, r, s.Index, n)
		}
	}()

	tkg := core.NewTKGFallible(b.services(s.Index), b.w.Resolver(), b.cfg.Build)
	if b.cfg.Chaos.panics(s.Index, n) {
		panic(fmt.Sprintf("chaos: injected panic in shard %d", s.Index))
	}
	if _, err := tkg.BuildContext(actx, pulses); err != nil {
		if actx.Err() != nil && ctx.Err() == nil {
			// The per-attempt deadline fired, not the build's context:
			// that is a transient, retryable failure.
			return nil, fmt.Errorf("%w: attempt timeout after %v (shard %d attempt %d)",
				ErrShardFailed, b.cfg.Timeout, s.Index, n)
		}
		return nil, err
	}
	// BuildContext only observes the context between pulses: a
	// cancellation (or attempt deadline) landing inside the final pulse
	// fails the in-flight enrichment lookups fast — degrading nodes — and
	// still returns success. Such a build is tainted and must never be
	// checkpointed, or a killed run's shard would differ from an
	// uninterrupted build and break resume bit-identity.
	if actx.Err() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: attempt deadline during final pulses (shard %d attempt %d)",
			ErrShardFailed, s.Index, n)
	}
	b.notePeak()

	r := tkg.Report()
	var buf bytes.Buffer
	if _, err := tkg.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("shard %d: serialise sub-TKG: %w", s.Index, err)
	}
	return &envelope{
		Spec: s,
		Stats: shardStats{
			Pulses:       r.Pulses,
			Merged:       r.Merged,
			Skipped:      r.Skipped,
			EnrichErrors: int64(r.EnrichErrors),
			Degraded:     r.Degraded(),
		},
		TKG: buf.Bytes(),
	}, nil
}

// backoff sleeps the capped exponential delay before a retry, with
// deterministic jitter so retry storms across shards decorrelate without
// introducing randomness.
func (b *builder) backoff(ctx context.Context, shard, attempt int) error {
	d := b.cfg.Backoff << uint(attempt-2)
	if max := 10 * b.cfg.Backoff; d > max {
		d = max
	}
	// ±25% deterministic jitter from the shard/attempt hash.
	j := chaosHash(int64(shard), "backoff", "jitter", shard, attempt) % 512
	d += d * time.Duration(int64(j)-256) / 1024
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stepDone runs the post-checkpoint hooks.
func (b *builder) stepDone(i int) {
	if b.cfg.OnShardDone != nil {
		b.cfg.OnShardDone(i)
	}
	if b.cfg.StepDelay > 0 {
		time.Sleep(b.cfg.StepDelay)
	}
}

// notePeak samples the Go heap and keeps the maximum for the
// trail_shard_peak_heap_bytes gauge.
func (b *builder) notePeak() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.peakMu.Lock()
	if ms.HeapAlloc > b.peakHeap {
		b.peakHeap = ms.HeapAlloc
		if b.sm != nil {
			b.sm.peakHeap.Set(float64(b.peakHeap))
		}
	}
	b.peakMu.Unlock()
}
