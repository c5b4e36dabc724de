// Package ingest implements crash-safe streaming ingest: a journaled,
// backpressure-aware pipeline from OSINT event pulse to live serving
// snapshot (DESIGN.md §3h).
//
// The pipeline is four stages behind a bounded queue:
//
//	Submit -> [queue] -> WAL append -> apply (TKG merge + incremental
//	label propagation) -> periodic cut (checkpoint + publish)
//
// Durability rests on a write-ahead log (ckpt.Journal) plus an
// atomically-written state checkpoint. Every accepted event is appended
// to the WAL under a fixed-width sequence key before any state mutation;
// the checkpoint embeds the watermark — the sequence number of the last
// event fully applied to the checkpointed state — inside the same
// checksummed envelope as the state itself, so the pair is indivisible.
// Recovery is: load the newest intact checkpoint, replay WAL records
// with sequence numbers above its watermark in order, continue. Killing
// the process after any record leaves a prefix that replays to exactly
// the state an uninterrupted run reaches (proven record-by-record by the
// package tests).
//
// A single apply goroutine owns all mutable state (TKG, label
// propagation history, sequence counter), so the pipeline needs no state
// locks; Submit provides backpressure by blocking up to a deadline on
// the bounded queue and shedding with ErrOverloaded past it.
package ingest

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"trail/internal/apt"
	"trail/internal/ckpt"
	"trail/internal/core"
	"trail/internal/graph"
	"trail/internal/labelprop"
	"trail/internal/metrics"
	"trail/internal/osint"
)

// Files the pipeline keeps inside its state directory.
const (
	// JournalFile is the event write-ahead log.
	JournalFile = "events.jrn"
	// StateFile is the atomically-written state checkpoint
	// (watermark + TKG snapshot in one envelope).
	StateFile = "ingest.ck"
)

// StateKind tags the ingest state checkpoint envelope.
const StateKind = "ingest.state"

const stateVersion = 1

// watermarkKey is the advisory watermark record in the WAL. The
// authoritative watermark lives inside the state checkpoint (the two
// must be indivisible); this record only lets offline tooling estimate
// replay length without opening the checkpoint.
const watermarkKey = "wm"

// ErrOverloaded is returned by Submit when the queue stays full past the
// enqueue deadline: the event is shed and the caller decides whether to
// retry, buffer, or drop.
var ErrOverloaded = errors.New("ingest: queue full past deadline; event shed")

// ErrClosed is returned by Submit and control calls after Close/Abort.
var ErrClosed = errors.New("ingest: pipeline closed")

// persistedState is the gob payload of the state checkpoint.
type persistedState struct {
	// Watermark is the sequence number of the last WAL event applied to
	// the TKG bytes below (0 = none).
	Watermark uint64
	// TKG is the core.TKG snapshot (WriteTo format).
	TKG []byte
}

// Config parameterises a Pipeline. Dir, Resolver and Services are
// required; everything else has serviceable defaults.
type Config struct {
	// Dir is the pipeline state directory (WAL + checkpoint). Created if
	// absent. One live pipeline per directory — a second opener gets
	// ckpt.ErrJournalLocked.
	Dir string
	// Resolver maps pulse tags to APT identities.
	Resolver *apt.Resolver
	// Services is the enrichment stack. Wrap it in resilience middleware
	// (osint.NewResilientServices) so transient provider failures stall
	// only the affected event and permanent ones degrade rather than
	// wedge.
	Services osint.FallibleServices
	// Build configures a fresh TKG when neither a checkpoint nor BasePath
	// exists; a recovered TKG keeps its checkpointed config.
	Build core.BuildConfig
	// BasePath, when set, seeds a fresh pipeline from an existing TKG
	// checkpoint (e.g. a training run's tkg.ck). Ignored once the
	// pipeline has cut its own state checkpoint.
	BasePath string

	// Classes and Layers configure incremental label propagation over
	// the evolving graph. Either <= 0 disables it.
	Classes, Layers int

	// QueueDepth bounds the admission queue (default 256).
	QueueDepth int
	// EnqueueWait is how long Submit may block on a full queue before
	// shedding: > 0 is used as-is, 0 means a 50ms default, and < 0 blocks
	// indefinitely (for file/backfill sources that prefer backpressure
	// over loss).
	EnqueueWait time.Duration
	// SyncEvery batches WAL fsyncs (see ckpt.JournalOpts for the exact
	// durability window). <= 1 fsyncs every event.
	SyncEvery int
	// PublishEvery cuts a checkpoint + snapshot every N applied events
	// (default 32; < 0 disables count-based cuts).
	PublishEvery int
	// FlushInterval cuts on a timer even when traffic is slow
	// (default 2s; < 0 disables).
	FlushInterval time.Duration
	// RepairInterval, when > 0, runs the degraded-node catch-up loop
	// (core.TKG.RepairDegraded) on this period, re-enriching up to
	// RepairBatch nodes per tick (0 = all).
	RepairInterval time.Duration
	RepairBatch    int

	// Publish, when set, receives a copy of the TKG and its watermark
	// after every cut (core.TKG.Clone). The graph and the bookkeeping are
	// deep-copied, so the consumer may mutate them freely; the feature
	// vectors are shared with the live TKG and are read-only (the
	// pipeline replaces a vector on repair, it never writes into one).
	// Called from a dedicated goroutine; a slow consumer only skips
	// intermediate snapshots (latest wins), never delays checkpoints.
	Publish func(tkg *core.TKG, watermark uint64)

	// Metrics, when set, receives the trail_ingest_* instruments;
	// otherwise a private registry is used.
	Metrics *metrics.Registry
	// Logf, when set, receives operational notices.
	Logf func(format string, args ...any)

	// applyDelay is a test hook invoked after the WAL append and before
	// the apply of each event (to stall the apply stage and force
	// backpressure).
	applyDelay func(osint.Pulse)
}

func (c *Config) fill() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.EnqueueWait == 0 {
		c.EnqueueWait = 50 * time.Millisecond
	}
	if c.PublishEvery == 0 {
		c.PublishEvery = 32
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
}

// item is one queue entry: an event, or a control marker (barrier /
// forced cut / state copy request).
type item struct {
	pulse   osint.Pulse
	barrier chan struct{}
	cut     bool
	copyTo  chan stateCopy
}

type stateCopy struct {
	tkg       *core.TKG
	watermark uint64
	err       error
}

type published struct {
	tkg       *core.TKG
	watermark uint64
}

type pipelineMetrics struct {
	accepted, shed, applied, skipped, duplicates, failed *metrics.Counter
	replayed, repaired, repairAttempts                   *metrics.Counter
	checkpoints, publishes, publishSkipped, walErrors    *metrics.Counter
	patchApplied, patchFallback                          *metrics.Counter
	dirtyFrontier                                        *metrics.Gauge
	durableSeq, watermarkSeq                             *metrics.Gauge
	cutSeconds                                           *metrics.Histogram
}

// Pipeline is one live ingest instance over a state directory.
type Pipeline struct {
	cfg       Config
	statePath string
	jrn       *ckpt.Journal

	// Owned by the apply goroutine after New returns.
	tkg      *core.TKG
	lp       *labelprop.State
	seeds    map[graph.NodeID]int
	nextSeq  uint64
	sinceCut int

	watermark   atomic.Uint64
	durable     atomic.Uint64 // highest WAL-appended event sequence
	lastPublish atomic.Int64  // unix nanos of the last completed publish
	lastCut     atomic.Uint64 // float64 bits of the last cut's duration (s)

	// lastPatch is the previous CSRPatchStats sample, for counter deltas
	// (owned by the apply goroutine).
	lastPatch graph.CSRPatchStats

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool

	queue     chan item
	pubCh     chan published
	abortCh   chan struct{}
	applyDone chan struct{}
	pubDone   chan struct{}

	// Recovery report (fixed after New).
	Replayed    int  // WAL events re-applied on open
	DroppedTail bool // WAL lost a torn tail record on open

	met pipelineMetrics
}

func eventKey(seq uint64) string { return fmt.Sprintf("e%016d", seq) }

// parseEventKey inverts eventKey, rejecting control records.
func parseEventKey(k string) (uint64, bool) {
	if len(k) != 17 || k[0] != 'e' {
		return 0, false
	}
	var seq uint64
	for _, c := range k[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// New opens (or recovers) the pipeline in cfg.Dir and starts its worker
// goroutines. Recovery order: acquire the WAL's writer lock, load the
// state checkpoint (else BasePath, else a fresh TKG), replay WAL events
// above the checkpoint watermark, re-converge label propagation once,
// then begin accepting Submit calls.
func New(cfg Config) (*Pipeline, error) {
	cfg.fill()
	if cfg.Resolver == nil || cfg.Services == nil {
		return nil, errors.New("ingest: Config.Resolver and Config.Services are required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: state dir: %w", err)
	}
	jrn, err := ckpt.OpenJournalOpts(filepath.Join(cfg.Dir, JournalFile), ckpt.JournalOpts{SyncEvery: cfg.SyncEvery})
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:       cfg,
		statePath: filepath.Join(cfg.Dir, StateFile),
		jrn:       jrn,
		queue:     make(chan item, cfg.QueueDepth),
		pubCh:     make(chan published, 1),
		abortCh:   make(chan struct{}),
		applyDone: make(chan struct{}),
		pubDone:   make(chan struct{}),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.initMetrics()
	if err := p.recover(); err != nil {
		jrn.Close()
		return nil, err
	}
	go p.applyLoop()
	go p.publishLoop()
	return p, nil
}

func (p *Pipeline) initMetrics() {
	r := p.cfg.Metrics
	m := &p.met
	m.accepted = r.Counter("trail_ingest_accepted_total", "Events admitted to the ingest queue.")
	m.shed = r.Counter("trail_ingest_shed_total", "Events shed because the queue stayed full past the enqueue deadline.")
	m.applied = r.Counter("trail_ingest_applied_total", "Events merged into the TKG.")
	m.skipped = r.Counter("trail_ingest_skipped_total", "Events discarded by tag resolution (no unique APT tag).")
	m.duplicates = r.Counter("trail_ingest_duplicate_total", "Events rejected as duplicate pulse IDs (includes harmless replay overlap).")
	m.failed = r.Counter("trail_ingest_failed_total", "Events whose apply failed for any other reason.")
	m.replayed = r.Counter("trail_ingest_replayed_total", "WAL events re-applied during recovery.")
	m.repaired = r.Counter("trail_ingest_repaired_total", "Degraded nodes restored by the enrichment catch-up loop.")
	m.repairAttempts = r.Counter("trail_ingest_repair_attempted_total", "Degraded-node repair attempts.")
	m.checkpoints = r.Counter("trail_ingest_checkpoints_total", "State checkpoints cut.")
	m.publishes = r.Counter("trail_ingest_publishes_total", "Snapshots handed to the publish callback.")
	m.publishSkipped = r.Counter("trail_ingest_publish_skipped_total", "Snapshots superseded before the publish callback consumed them.")
	m.walErrors = r.Counter("trail_ingest_wal_errors_total", "WAL append/sync failures (the affected event is dropped).")
	m.patchApplied = r.Counter("trail_csr_patch_applied_total", "CSR snapshots emitted with a reused or merge-repaired permutation.")
	m.patchFallback = r.Counter("trail_csr_patch_fallback_total", "CSR snapshots whose permutation needed a full re-sort.")
	m.cutSeconds = r.Histogram("trail_ingest_cut_seconds", "Wall time of a cut: WAL sync, state checkpoint, snapshot hand-off.", metrics.DefBuckets())
	m.dirtyFrontier = r.Gauge("trail_ingest_dirty_frontier", "Rows recomputed by the last incremental label-propagation pass.")
	m.durableSeq = r.Gauge("trail_ingest_durable_seq", "Highest event sequence number appended to the WAL.")
	m.watermarkSeq = r.Gauge("trail_ingest_watermark_seq", "Sequence number of the last event covered by the state checkpoint.")
	r.GaugeFunc("trail_ingest_watermark_lag", "WAL events not yet covered by a state checkpoint (replay length after a crash).",
		func() float64 { return float64(p.durable.Load() - p.watermark.Load()) })
	r.GaugeFunc("trail_ingest_wal_bytes", "On-disk size of the event WAL.",
		func() float64 { return float64(p.jrn.Size()) })
	r.GaugeFunc("trail_ingest_queue_depth", "Events waiting in the admission queue.",
		func() float64 { return float64(len(p.queue)) })
	r.GaugeFunc("trail_ingest_snapshot_age_seconds", "Seconds since the last snapshot publish (0 until the first).",
		func() float64 {
			ns := p.lastPublish.Load()
			if ns == 0 {
				return 0
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}

// recover loads the checkpointed state and replays the WAL tail.
func (p *Pipeline) recover() error {
	cfg := &p.cfg
	var wm uint64
	switch payload, err := ckpt.Load(p.statePath, StateKind, stateVersion); {
	case err == nil:
		var st persistedState
		if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); derr != nil {
			return fmt.Errorf("ingest: decode state checkpoint: %w", derr)
		}
		tkg, terr := core.ReadTKGFallible(bytes.NewReader(st.TKG), cfg.Services, cfg.Resolver)
		if terr != nil {
			return fmt.Errorf("ingest: state checkpoint TKG: %w", terr)
		}
		p.tkg, wm = tkg, st.Watermark
		cfg.Logf("ingest: recovered checkpoint at watermark %d (%d nodes)", wm, tkg.G.NumNodes())
	case errors.Is(err, fs.ErrNotExist):
		if cfg.BasePath != "" {
			tkg, terr := core.LoadTKGFallible(cfg.BasePath, cfg.Services, cfg.Resolver)
			if terr != nil {
				return fmt.Errorf("ingest: base TKG: %w", terr)
			}
			p.tkg = tkg
			cfg.Logf("ingest: seeded from %s (%d nodes)", cfg.BasePath, tkg.G.NumNodes())
		} else {
			p.tkg = core.NewTKGFallible(cfg.Services, cfg.Resolver, cfg.Build)
		}
	default:
		return err
	}
	p.watermark.Store(wm)
	p.met.watermarkSeq.Set(float64(wm))
	p.DroppedTail = p.jrn.DroppedTail
	if p.DroppedTail {
		cfg.Logf("ingest: WAL dropped a torn tail record (crash mid-append); the event was never acknowledged durable")
	}

	// Replay the WAL tail in sequence order. Fixed-width keys make the
	// journal's lexicographic order the numeric order. The seed set is
	// rebuilt wholesale after replay; countApply only needs it non-nil.
	p.seeds = make(map[graph.NodeID]int)
	var maxSeq uint64
	for _, k := range p.jrn.Keys() {
		seq, ok := parseEventKey(k)
		if !ok {
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq <= wm {
			continue
		}
		payload, _ := p.jrn.Done(k)
		var pulse osint.Pulse
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pulse); err != nil {
			// The record passed its CRC, so this is schema drift, not
			// corruption — refuse to guess.
			return fmt.Errorf("ingest: WAL record %s undecodable: %w", k, err)
		}
		p.countApply(p.tkg.ApplyPulse(p.ctx, pulse))
		p.Replayed++
		p.met.replayed.Inc()
	}
	if maxSeq < wm {
		// A checkpoint ahead of the WAL (e.g. a manually truncated log):
		// never re-issue sequence numbers the watermark already covers.
		maxSeq = wm
	}
	p.nextSeq = maxSeq + 1
	p.durable.Store(maxSeq)
	p.met.durableSeq.Set(float64(maxSeq))
	if p.Replayed > 0 {
		cfg.Logf("ingest: replayed %d WAL events (watermark %d -> %d)", p.Replayed, wm, maxSeq)
	}

	// One full label-propagation convergence over the recovered state;
	// every later event re-converges incrementally. Incremental and full
	// runs are bit-identical (labelprop equivalence tests), so a restart
	// never perturbs answers.
	p.tkg.G.TrackDirty(true)
	p.tkg.G.DrainDirty() // load + replay dirt is covered by the full pass
	p.seeds = p.tkg.EventSeeds()
	if cfg.Classes > 0 && cfg.Layers > 0 && p.tkg.G.NumNodes() > 0 {
		p.lp = labelprop.PropagateFull(p.tkg.G.LiveCSR(), p.seeds, cfg.Classes, cfg.Layers)
		p.met.dirtyFrontier.Set(float64(p.lp.LastFrontier))
	}
	p.syncPatchMetrics()
	return nil
}

// syncPatchMetrics folds the graph's CSR emission counters into the
// registry as deltas. Called from the apply goroutine only.
func (p *Pipeline) syncPatchMetrics() {
	st := p.tkg.G.CSRPatchStats()
	if d := st.Applied - p.lastPatch.Applied; d > 0 {
		p.met.patchApplied.Add(d)
	}
	if d := st.Fallback - p.lastPatch.Fallback; d > 0 {
		p.met.patchFallback.Add(d)
	}
	p.lastPatch = st
}

// countApply buckets an ApplyPulse outcome into the stage counters and
// maintains the label-propagation seed set.
func (p *Pipeline) countApply(id graph.NodeID, err error) {
	switch {
	case err == nil:
		p.met.applied.Inc()
		if n := p.tkg.G.Node(id); n.Label >= 0 {
			p.seeds[id] = n.Label
		}
	case errors.Is(err, core.ErrSkipped):
		p.met.skipped.Inc()
	case errors.Is(err, core.ErrDuplicate):
		p.met.duplicates.Inc()
	default:
		p.met.failed.Inc()
		p.cfg.Logf("ingest: apply failed: %v", err)
	}
}

// Submit offers one event to the pipeline. It blocks while the queue is
// full, up to the configured enqueue deadline, then sheds the event with
// ErrOverloaded. ctx cancellation returns ctx.Err(); a closed pipeline
// returns ErrClosed. A nil return means the event was accepted — it
// becomes durable once the WAL stage appends it (see DurableSeq).
func (p *Pipeline) Submit(ctx context.Context, pulse osint.Pulse) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	it := item{pulse: pulse}
	if p.cfg.EnqueueWait < 0 {
		select {
		case p.queue <- it:
			p.met.accepted.Inc()
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-p.abortCh:
			return ErrClosed
		}
	}
	// Fast path before arming a timer.
	select {
	case p.queue <- it:
		p.met.accepted.Inc()
		return nil
	default:
	}
	t := time.NewTimer(p.cfg.EnqueueWait)
	defer t.Stop()
	select {
	case p.queue <- it:
		p.met.accepted.Inc()
		return nil
	case <-t.C:
		p.met.shed.Inc()
		return ErrOverloaded
	case <-ctx.Done():
		return ctx.Err()
	case <-p.abortCh:
		return ErrClosed
	}
}

// control enqueues a control item and waits for the apply stage to
// process it.
func (p *Pipeline) control(ctx context.Context, it item) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	select {
	case p.queue <- it:
		p.mu.RUnlock()
	case <-ctx.Done():
		p.mu.RUnlock()
		return ctx.Err()
	case <-p.abortCh:
		p.mu.RUnlock()
		return ErrClosed
	}
	select {
	case <-it.barrier:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.applyDone:
		// The pipeline aborted with the marker still queued.
		select {
		case <-it.barrier:
			return nil
		default:
			return ErrClosed
		}
	}
}

// Barrier returns once every event submitted before it has passed the
// apply stage.
func (p *Pipeline) Barrier(ctx context.Context) error {
	return p.control(ctx, item{barrier: make(chan struct{})})
}

// Cut forces a checkpoint + publish covering everything submitted before
// it, and waits for the checkpoint (not the publish) to land.
func (p *Pipeline) Cut(ctx context.Context) error {
	return p.control(ctx, item{barrier: make(chan struct{}), cut: true})
}

// State returns a copy of the current TKG (core.TKG.Clone: deep graph,
// shared read-only feature vectors, as for Config.Publish) and its
// applied sequence number — the hook embedding servers use to build
// their first snapshot before any publish has happened.
func (p *Pipeline) State(ctx context.Context) (*core.TKG, uint64, error) {
	ch := make(chan stateCopy, 1)
	if err := p.control(ctx, item{barrier: make(chan struct{}), copyTo: ch}); err != nil {
		return nil, 0, err
	}
	sc := <-ch
	return sc.tkg, sc.watermark, sc.err
}

// Watermark returns the sequence number covered by the newest state
// checkpoint.
func (p *Pipeline) Watermark() uint64 { return p.watermark.Load() }

// DurableSeq returns the highest event sequence number appended to the
// WAL. With a blocking (EnqueueWait < 0), in-order feeder, events
// 1..DurableSeq are exactly the first DurableSeq submissions — the
// resume offset after a crash.
func (p *Pipeline) DurableSeq() uint64 { return p.durable.Load() }

// Stats is a point-in-time copy of the pipeline counters.
type Stats struct {
	Accepted, Shed, Applied, Skipped, Duplicates, Failed uint64
	Replayed, Checkpoints, Publishes                     uint64
	DurableSeq, Watermark                                uint64
	WALBytes                                             int64
	// CSRPatchApplied / CSRPatchFallback count CSR snapshot emissions by
	// kind (reused or merge-repaired permutation vs. full re-sort).
	CSRPatchApplied, CSRPatchFallback uint64
	// LastCutSeconds is the wall time of the most recent cut (0 until the
	// first).
	LastCutSeconds float64
}

// Stats samples the pipeline counters (also exported on /metrics as the
// trail_ingest_* and trail_csr_patch_* families).
func (p *Pipeline) Stats() Stats {
	return Stats{
		Accepted:         p.met.accepted.Value(),
		Shed:             p.met.shed.Value(),
		Applied:          p.met.applied.Value(),
		Skipped:          p.met.skipped.Value(),
		Duplicates:       p.met.duplicates.Value(),
		Failed:           p.met.failed.Value(),
		Replayed:         p.met.replayed.Value(),
		Checkpoints:      p.met.checkpoints.Value(),
		Publishes:        p.met.publishes.Value(),
		DurableSeq:       p.durable.Load(),
		Watermark:        p.watermark.Load(),
		WALBytes:         p.jrn.Size(),
		CSRPatchApplied:  p.met.patchApplied.Value(),
		CSRPatchFallback: p.met.patchFallback.Value(),
		LastCutSeconds:   math.Float64frombits(p.lastCut.Load()),
	}
}

func (p *Pipeline) applyLoop() {
	defer close(p.applyDone)
	var flushC, repairC <-chan time.Time
	if p.cfg.FlushInterval > 0 {
		t := time.NewTicker(p.cfg.FlushInterval)
		defer t.Stop()
		flushC = t.C
	}
	if p.cfg.RepairInterval > 0 {
		t := time.NewTicker(p.cfg.RepairInterval)
		defer t.Stop()
		repairC = t.C
	}
	for {
		select {
		case it, ok := <-p.queue:
			if !ok {
				// Close: the queue is drained; cut a final checkpoint so
				// restart replays nothing.
				if p.sinceCut > 0 || p.watermark.Load() != p.nextSeq-1 {
					p.cut()
				}
				return
			}
			p.handle(it)
		case <-flushC:
			if p.sinceCut > 0 {
				p.cut()
			}
		case <-repairC:
			p.repair()
		case <-p.abortCh:
			return
		}
	}
}

func (p *Pipeline) handle(it item) {
	if it.barrier != nil {
		if it.cut {
			p.cut()
		}
		if it.copyTo != nil {
			tkg, err := p.tkg.Clone()
			it.copyTo <- stateCopy{tkg: tkg, watermark: p.nextSeq - 1, err: err}
		}
		close(it.barrier)
		return
	}
	seq := p.nextSeq
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&it.pulse); err != nil {
		p.met.failed.Inc()
		p.cfg.Logf("ingest: encode pulse %s: %v", it.pulse.ID, err)
		return
	}
	if err := p.jrn.Record(eventKey(seq), buf.Bytes()); err != nil {
		// The event was never durable; drop it rather than apply state the
		// WAL cannot reproduce.
		p.met.walErrors.Inc()
		p.cfg.Logf("ingest: WAL append seq %d: %v", seq, err)
		return
	}
	p.nextSeq++
	p.durable.Store(seq)
	p.met.durableSeq.Set(float64(seq))
	if p.cfg.applyDelay != nil {
		p.cfg.applyDelay(it.pulse)
	}
	p.countApply(p.tkg.ApplyPulse(p.ctx, it.pulse))
	p.propagate()
	p.sinceCut++
	if p.cfg.PublishEvery > 0 && p.sinceCut >= p.cfg.PublishEvery {
		p.cut()
	}
}

// propagate re-converges label propagation over the rows the last apply
// dirtied. Bit-identical to a from-scratch run (labelprop equivalence
// tests), at dirty-frontier cost instead of whole-graph cost. The
// operator is the graph's live slacked view: with patching on, no CSR is
// packed and no normalisation recomputed per event — the builder repairs
// only the delta's one-hop neighbourhood. DrainDirty recycles one buffer
// across events, so the per-event overhead allocates almost nothing.
func (p *Pipeline) propagate() {
	if p.cfg.Classes <= 0 || p.cfg.Layers <= 0 {
		return
	}
	dirty := p.tkg.G.DrainDirty()
	if len(dirty) == 0 && p.lp != nil {
		return
	}
	p.lp = labelprop.PropagateDirty(p.tkg.G.LiveCSR(), p.seeds, p.cfg.Classes, p.cfg.Layers, p.lp, dirty)
	p.met.dirtyFrontier.Set(float64(p.lp.LastFrontier))
}

// cut makes everything applied so far durable and observable: WAL sync,
// atomic state checkpoint embedding the watermark, advisory watermark
// record, then a snapshot hand-off to the publisher (latest wins).
func (p *Pipeline) cut() {
	wm := p.nextSeq - 1
	if p.sinceCut == 0 && p.watermark.Load() == wm {
		return // nothing new since the last cut (repair passes bump sinceCut)
	}
	start := time.Now()
	defer func() {
		d := time.Since(start).Seconds()
		p.met.cutSeconds.Observe(d)
		p.lastCut.Store(math.Float64bits(d))
		p.syncPatchMetrics()
	}()
	if err := p.jrn.Sync(); err != nil {
		p.met.walErrors.Inc()
		p.cfg.Logf("ingest: WAL sync: %v", err)
		return
	}
	var tkgBuf bytes.Buffer
	if _, err := p.tkg.WriteTo(&tkgBuf); err != nil {
		p.cfg.Logf("ingest: serialise TKG: %v", err)
		return
	}
	var env bytes.Buffer
	if err := gob.NewEncoder(&env).Encode(&persistedState{Watermark: wm, TKG: tkgBuf.Bytes()}); err != nil {
		p.cfg.Logf("ingest: encode state: %v", err)
		return
	}
	if err := ckpt.Save(p.statePath, StateKind, stateVersion, env.Bytes()); err != nil {
		p.cfg.Logf("ingest: checkpoint: %v", err)
		return
	}
	if err := p.jrn.RecordGob(watermarkKey, wm); err != nil {
		p.cfg.Logf("ingest: advisory watermark: %v", err)
	}
	p.watermark.Store(wm)
	p.met.watermarkSeq.Set(float64(wm))
	p.met.checkpoints.Inc()
	p.sinceCut = 0

	if p.cfg.Publish == nil {
		return
	}
	// The clone shares the live TKG's feature vectors (which are replaced,
	// never written, once stored), so a publish decodes none of them, and
	// an encoder set that memoises codes by vector identity re-encodes
	// only the rows that changed. The graph snapshot format is
	// order-faithful (its replay order rebuilds every adjacency row
	// entry-for-entry), so the clone's adjacency is bit-for-bit the live
	// graph's — and row order itself is crash-schedule independent,
	// because recovery replays the WAL in sequence order over a
	// checkpoint that preserved it. That makes the live graph's spliced
	// CSR emission directly adoptable: the published snapshot chain
	// starts from it instead of re-packing the whole graph.
	clone, err := p.tkg.Clone()
	if err != nil {
		p.cfg.Logf("ingest: snapshot clone: %v", err)
		return
	}
	if err := clone.G.AdoptCSR(p.tkg.G.CSR()); err != nil {
		p.cfg.Logf("ingest: adopt CSR: %v", err)
	}
	pb := published{tkg: clone, watermark: wm}
	for {
		select {
		case p.pubCh <- pb:
			return
		default:
		}
		// Mailbox full: discard the superseded snapshot and retry.
		select {
		case <-p.pubCh:
			p.met.publishSkipped.Inc()
		default:
		}
	}
}

func (p *Pipeline) repair() {
	repaired, attempted := p.tkg.RepairDegraded(p.ctx, p.cfg.RepairBatch)
	if attempted > 0 {
		p.met.repairAttempts.Add(uint64(attempted))
		p.cfg.Logf("ingest: repair pass: %d/%d degraded nodes restored", repaired, attempted)
	}
	if repaired > 0 {
		p.met.repaired.Add(uint64(repaired))
		// Repaired features change serving inputs; fold them into the next
		// cut promptly.
		if p.sinceCut == 0 {
			p.sinceCut++
		}
	}
}

func (p *Pipeline) publishLoop() {
	defer close(p.pubDone)
	for pb := range p.pubCh {
		p.cfg.Publish(pb.tkg, pb.watermark)
		p.met.publishes.Inc()
		p.lastPublish.Store(time.Now().UnixNano())
	}
}

// Close drains the pipeline: intake stops, every queued event is
// journaled and applied, a final checkpoint (with its watermark) is cut
// and fsynced, the last snapshot is published, and the WAL lock is
// released. After a clean Close a restart replays zero events.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.applyDone
		<-p.pubDone
		return nil
	}
	p.closed = true
	close(p.queue) // safe: Submit holds mu.RLock around every send
	p.mu.Unlock()
	<-p.applyDone
	close(p.pubCh)
	<-p.pubDone
	p.cancel()
	return p.jrn.Close()
}

// Abort is the crash-test hook: it stops the pipeline immediately —
// queued events are dropped, no final checkpoint is cut — leaving
// exactly the on-disk state a kill -9 would. The WAL lock is released so
// a successor pipeline can recover the directory.
func (p *Pipeline) Abort() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cancel()
	close(p.abortCh)
	p.mu.Unlock()
	<-p.applyDone
	close(p.pubCh)
	<-p.pubDone
	p.jrn.Close()
}
