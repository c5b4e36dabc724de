package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"trail/internal/ckpt"
	"trail/internal/core"
	"trail/internal/gnn"
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
		clock := osint.NewManualClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
		cc := osint.ChaosConfig{
			Seed:                    cfg.Seed,
			PermanentRate:           *chaos,
			TransientRate:           *transient,
			MaxConsecutiveTransient: 3,
			Clock:                   clock,
		}
		rcfg := osint.DefaultResilienceConfig()
		rcfg.Clock = clock
		rcfg.MaxAttempts = 5
		stack = osint.NewResilientServices(osint.NewChaosServices(w, cc), rcfg)
	} else {
		stack = osint.NewResilientServices(osint.Infallible(w), osint.DefaultResilienceConfig())
	}

	// With -addr, the frozen model artefacts load once up front — only the
	// graph and features evolve during ingest, so each cut republishes a
	// snapshot over the same encoders + weights.
	reg := metrics.NewRegistry()
	var srvPtr atomic.Pointer[serve.Server]
	var makeSnap func(*core.TKG) (*serve.Snapshot, error)
	if *addr != "" {
		enc, err := gnn.LoadEncoders(filepath.Join(*modelDir, serve.EncodersFile))
		if err != nil {
			return fmt.Errorf("ingest: load encoders (run `trail train -dir %s` first): %w", *modelDir, err)
		}
		f32Path := filepath.Join(*modelDir, serve.ModelF32File)
		if _, err := ckpt.Peek(f32Path); err == nil {
			model, err := gnn.LoadModelOf[float32](f32Path)
			if err != nil {
				return fmt.Errorf("ingest: load float32 model: %w", err)
			}
			makeSnap = func(t *core.TKG) (*serve.Snapshot, error) {
				return serve.NewSnapshot(t.G, t.Features, names, enc, model)
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("ingest: inspect %s: %w", f32Path, err)
		} else {
			model, err := gnn.LoadModel(filepath.Join(*modelDir, serve.ModelFile))
			if err != nil {
				return fmt.Errorf("ingest: load model (run `trail train -dir %s` first): %w", *modelDir, err)
			}
			makeSnap = func(t *core.TKG) (*serve.Snapshot, error) {
				return serve.NewSnapshot(t.G, t.Features, names, enc, model)
			}
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
			snap, err := makeSnap(t)
			if err != nil {
				logf("ingest: snapshot build failed at watermark %d: %v", wm, err)
				return
			}
			s.Publish(snap)
		}
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
			return makeSnap(clone)
		})
		if err != nil {
			p.Close()
			return err
		}
		srvPtr.Store(srv)
		go func() { srvErr <- srv.Run(ctx, *addr) }()
	}

	feedErr := runFeed(ctx, p, w, *feed, *from, cfg.Months, *rate, logf)
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

// runFeed submits pulses from the configured source, resuming after the
// pipeline's durable sequence number so a restarted process never
// re-submits events that are already in the WAL (required: duplicate
// accounting is persisted, so re-submission would fork recovered state
// from an uninterrupted run).
func runFeed(ctx context.Context, p *ingest.Pipeline, w *osint.World, feed string, from, months int, rate float64, logf func(string, ...any)) error {
	var pulses []osint.Pulse
	switch feed {
	case "":
		pulses = w.PulsesInMonths(from, months)
	case "-":
		var err error
		if pulses, err = osint.DecodePulses(os.Stdin); err != nil {
			return fmt.Errorf("ingest: decode stdin feed: %w", err)
		}
	default:
		f, err := os.Open(feed)
		if err != nil {
			return err
		}
		pulses, err = osint.DecodePulses(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("ingest: decode feed %s: %w", feed, err)
		}
	}

	skip := p.DurableSeq()
	if skip > uint64(len(pulses)) {
		return fmt.Errorf("ingest: pipeline is %d events ahead of a %d-event feed — wrong feed for this state directory?",
			skip, len(pulses))
	}
	if skip > 0 {
		logf("ingest: resuming feed at event %d/%d", skip, len(pulses))
	}
	pulses = pulses[skip:]

	var tick *time.Ticker
	if rate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer tick.Stop()
	}
	for i := range pulses {
		if tick != nil {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err := p.Submit(ctx, pulses[i])
		switch {
		case err == nil:
		case errors.Is(err, ingest.ErrOverloaded):
			// Shed under pressure; the counter on /metrics records it.
		default:
			return err
		}
	}
	return p.Barrier(ctx)
}
