package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"trail/internal/core"
	"trail/internal/graph"
	"trail/internal/ingest"
	"trail/internal/metrics"
	"trail/internal/osint"
	"trail/internal/serve"
)

// cmdIngest runs the crash-safe streaming pipeline: pulses from an
// NDJSON feed (or the synthetic world) are journaled to a WAL, merged
// into the TKG incrementally, and periodically cut into an atomic
// checkpoint. With -addr the process also serves attribution over HTTP,
// publishing a fresh serving snapshot at every cut.
//
// The pipeline state directory (-dir) owns the WAL and checkpoint; a
// restart replays events past the last checkpoint's watermark and the
// feeder resumes the feed at the durable sequence number, so a kill -9
// at any point converges to the same state as an uninterrupted run.
// SIGINT/SIGTERM stop the feed, drain the queue, fsync a final
// checkpoint, and exit.
func cmdIngest(args []string) error {
	fs2 := flag.NewFlagSet("ingest", flag.ExitOnError)
	cfg := worldFlags(fs2)
	dir := fs2.String("dir", "trail-ingest", "pipeline state directory (WAL + checkpoint); one live pipeline per directory")
	base := fs2.String("base", "", "seed a fresh pipeline from this TKG checkpoint (ignored once -dir has a checkpoint)")
	feed := fs2.String("feed", "", "NDJSON pulse feed; \"-\" reads stdin (default: synthetic pulses from the world)")
	from := fs2.Int("from", 0, "first world month to feed with the synthetic source")
	rate := fs2.Float64("rate", 0, "feed rate in events/sec (0 = as fast as the pipeline accepts)")
	addr := fs2.String("addr", "", "also serve attribution over HTTP, republishing at every checkpoint cut")
	modelDir := fs2.String("model-dir", "trail-ckpt", "trained checkpoint directory (encoders + model) used with -addr")
	queue := fs2.Int("queue", 256, "admission queue depth")
	wait := fs2.Duration("wait", -1, "max Submit wait on a full queue before shedding (<0 blocks; file feeds prefer backpressure over loss)")
	syncEvery := fs2.Int("sync-every", 1, "events per WAL fsync (>1 trades a bounded power-failure loss window for throughput)")
	publishEvery := fs2.Int("publish-every", 32, "events between checkpoint cuts (<0 disables count-based cuts)")
	flush := fs2.Duration("flush", 2*time.Second, "idle checkpoint interval (<0 disables)")
	layers := fs2.Int("layers", 2, "incremental label-propagation depth (0 disables)")
	chaos := fs2.Float64("chaos", 0, "permanent enrichment-failure rate injected behind the resilience middleware")
	transient := fs2.Float64("transient", 0, "transient enrichment-failure rate (absorbed by retries)")
	repair := fs2.Duration("repair", 5*time.Second, "degraded-node repair interval (<=0 disables the catch-up loop)")
	staleAfter := fs2.Duration("stale-after", 0, "report /healthz degraded (503) when the served snapshot is older than this (0 disables)")
	fs2.Parse(args)

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	w := osint.NewWorld(*cfg)
	names := w.Resolver().Names()

	// Enrichment stack: always behind the resilience middleware so
	// transient provider failures stall only the affected event; optional
	// chaos injection exercises the degradation + repair path.
	var stack osint.FallibleServices
	if *chaos > 0 || *transient > 0 {
		stack = osint.NewChaosStack(w, cfg.Seed, *chaos, *transient)
	} else {
		stack = osint.NewResilientServices(osint.Infallible(w), osint.DefaultResilienceConfig())
	}

	// With -addr, the frozen model artefacts load once up front — only the
	// graph and features evolve during ingest, so each cut republishes a
	// snapshot over the same encoders + weights.
	reg := metrics.NewRegistry()
	var srvPtr atomic.Pointer[serve.Server]
	var makeSnap func(*graph.Graph, map[graph.NodeID][]float64) (*serve.Snapshot, error)
	if *addr != "" {
		var err error
		if makeSnap, err = serve.LoadModelDir(*modelDir, names, logf); err != nil {
			return err
		}
	}

	pcfg := ingest.Config{
		Dir:            *dir,
		Resolver:       w.Resolver(),
		Services:       stack,
		Build:          core.DefaultBuildConfig(),
		BasePath:       *base,
		Layers:         *layers,
		QueueDepth:     *queue,
		EnqueueWait:    *wait,
		SyncEvery:      *syncEvery,
		PublishEvery:   *publishEvery,
		FlushInterval:  *flush,
		RepairInterval: *repair,
		Metrics:        reg,
		Logf:           logf,
	}
	if *layers > 0 {
		pcfg.Classes = len(names)
	}
	if makeSnap != nil {
		pcfg.Publish = func(t *core.TKG, wm uint64) {
			s := srvPtr.Load()
			if s == nil {
				return
			}
			snap, err := makeSnap(t.G, t.Features)
			if err != nil {
				logf("ingest: snapshot build failed at watermark %d: %v", wm, err)
				return
			}
			s.Publish(snap)
		}
	}

	var source func(func(osint.Pulse) error) error
	switch *feed {
	case "":
		pulses := w.PulsesInMonths(*from, cfg.Months)
		source = func(fn func(osint.Pulse) error) error {
			for i := range pulses {
				if err := fn(pulses[i]); err != nil {
					return err
				}
			}
			return nil
		}
	case "-":
		source = func(fn func(osint.Pulse) error) error { return osint.ScanPulses(os.Stdin, fn) }
	default:
		f, err := os.Open(*feed)
		if err != nil {
			return err
		}
		defer f.Close()
		source = func(fn func(osint.Pulse) error) error { return osint.ScanPulses(f, fn) }
	}

	p, err := ingest.New(pcfg)
	if err != nil {
		return err
	}
	if p.Replayed > 0 || p.DroppedTail {
		logf("ingest: recovered — %d WAL event(s) replayed past watermark %d (torn tail dropped: %v)",
			p.Replayed, p.Watermark(), p.DroppedTail)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srvErr := make(chan error, 1)
	if *addr != "" {
		// The loader snapshots live pipeline state, so the initial install
		// (and any POST /v1/reload) serves the current graph.
		scfg := serve.Config{Registry: reg, Logf: logf, StaleAfter: *staleAfter}
		scfg.ExtraStats = func() map[string]any {
			st := p.Stats()
			return map[string]any{
				"csr_patch_applied":  st.CSRPatchApplied,
				"csr_patch_fallback": st.CSRPatchFallback,
				"last_cut_seconds":   st.LastCutSeconds,
				"checkpoints":        st.Checkpoints,
				"watermark":          st.Watermark,
			}
		}
		srv, err := serve.New(scfg, func() (*serve.Snapshot, error) {
			clone, _, err := p.State(ctx)
			if err != nil {
				return nil, err
			}
			return makeSnap(clone.G, clone.Features)
		})
		if err != nil {
			p.Close()
			return err
		}
		srvPtr.Store(srv)
		go func() { srvErr <- srv.Run(ctx, *addr) }()
	}

	// The feed runs on its own goroutine: a read from a live stdin
	// producer can block indefinitely, and SIGTERM must still drain the
	// queue and checkpoint. An abandoned feed's Submit gets ErrClosed.
	fed := make(chan error, 1)
	go func() { fed <- runFeed(ctx, p, source, *rate, logf) }()
	var feedErr error
	select {
	case feedErr = <-fed:
	case <-ctx.Done():
		feedErr = ctx.Err()
	}
	if *addr != "" {
		if feedErr == nil && ctx.Err() == nil {
			logf("ingest: feed drained (%d events durable) — serving until SIGTERM", p.DurableSeq())
		}
		<-ctx.Done()
	}

	closeErr := p.Close() // drain the queue, fsync a final checkpoint
	st := p.Stats()
	fmt.Printf("ingest: accepted=%d shed=%d applied=%d skipped=%d duplicates=%d failed=%d replayed=%d checkpoints=%d publishes=%d watermark=%d wal=%dB\n",
		st.Accepted, st.Shed, st.Applied, st.Skipped, st.Duplicates, st.Failed,
		st.Replayed, st.Checkpoints, st.Publishes, st.Watermark, st.WALBytes)

	if *addr != "" {
		if err := <-srvErr; err != nil && feedErr == nil {
			feedErr = err
		}
	}
	if feedErr != nil && !errors.Is(feedErr, context.Canceled) {
		return feedErr
	}
	return closeErr
}

// runFeed submits the pulses that feed yields, resuming after the
// pipeline's durable sequence number so a restarted process never
// re-submits events that are already in the WAL (required: duplicate
// accounting is persisted, so re-submission would fork recovered state
// from an uninterrupted run). feed calls its argument once per pulse, in
// order, as each arrives, and stops at its first error.
func runFeed(ctx context.Context, p *ingest.Pipeline, feed func(func(osint.Pulse) error) error, rate float64, logf func(string, ...any)) error {
	skip := p.DurableSeq()
	if skip > 0 {
		logf("ingest: resuming feed at event %d", skip)
	}
	var tick *time.Ticker
	if rate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer tick.Stop()
	}
	var seen uint64
	err := feed(func(pulse osint.Pulse) error {
		if seen++; seen <= skip {
			return nil
		}
		if tick != nil {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err := p.Submit(ctx, pulse)
		if errors.Is(err, ingest.ErrOverloaded) {
			return nil // shed under pressure; the counter on /metrics records it
		}
		return err
	})
	if err != nil {
		return err
	}
	if seen < skip {
		return fmt.Errorf("ingest: pipeline is %d events ahead of a %d-event feed — wrong feed for this state directory?",
			skip, seen)
	}
	return p.Barrier(ctx)
}
