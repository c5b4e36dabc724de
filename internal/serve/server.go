package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trail/internal/graph"
	"trail/internal/metrics"
)

// Config carries the operational knobs of the attribution server. Zero
// values select the documented defaults.
type Config struct {
	// MaxBatch caps how many requests share one forward pass (default 32).
	MaxBatch int
	// MaxWait bounds how long the batcher holds a batch open after its
	// first request arrives (default 2ms; 0 disables the deliberate wait
	// but opportunistic coalescing of queued bursts remains).
	MaxWait time.Duration
	// Timeout is the per-request budget from admission to answer
	// (default 5s).
	Timeout time.Duration
	// MaxBody caps the request body size in bytes (default 1<<20).
	MaxBody int64
	// TopK is the default number of ranked predictions per answer
	// (default 5; requests may override, 0 means all classes).
	TopK int
	// QueueDepth sizes the admission queue (default 4*MaxBatch); a full
	// queue sheds load as 503 rather than buffering unboundedly.
	QueueDepth int
	// DrainTimeout bounds the graceful shutdown drain (default 10s).
	DrainTimeout time.Duration
	// Logf, when set, receives operational notices (reloads, lifecycle).
	Logf func(format string, args ...any)
	// Registry, when set, is used instead of a private registry so
	// embedders (the streaming ingest daemon) can expose their own
	// metrics on the same /metrics endpoint. Metric names must not
	// collide with the trail_http_*/trail_attribute_*/trail_snapshot_*
	// families the server registers.
	Registry *metrics.Registry
	// StaleAfter, when positive, makes /healthz report degraded (HTTP 503
	// with a JSON reason) once the serving snapshot is older than this —
	// so orchestrators notice a daemon whose reload/ingest pipeline has
	// silently stalled while request serving still works. 0 disables the
	// check (always 200 while a snapshot is loaded).
	StaleAfter time.Duration
	// ExtraStats, when set, is sampled per /v1/stats request and merged
	// into the response under "extra" — the hook embedders (the streaming
	// ingest daemon) use to surface pipeline counters such as cut latency
	// and CSR patch/fallback totals next to the serving stats.
	ExtraStats func() map[string]any
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.TopK == 0 {
		c.TopK = 5
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server is the attribution daemon: an atomic snapshot pointer, a
// coalescing batcher feeding the snapshot's inference engine, and the
// HTTP surface (/v1/attribute, /v1/stats, /v1/reload, /v1/sample,
// /healthz, /metrics).
type Server struct {
	cfg  Config
	load Loader

	snap      atomic.Pointer[Snapshot]
	nextEpoch atomic.Uint64
	reloadMu  sync.Mutex // serialises Reload; readers never take it

	bat     *batcher
	start   time.Time
	handler http.Handler

	reg *metrics.Registry
	met serveMetrics
}

type serveMetrics struct {
	httpRequests  *metrics.CounterVec // path, code
	attrRequests  *metrics.Counter
	attrBatched   *metrics.Counter
	attrErrors    *metrics.CounterVec // code
	batches       *metrics.Counter
	batchSize     *metrics.Histogram
	attrLatency   *metrics.Histogram
	inferLatency  *metrics.Histogram
	inflight      *metrics.Gauge
	snapshotEpoch *metrics.Gauge
	reloads       *metrics.Counter
	reloadFails   *metrics.Counter
	nodes, events *metrics.Gauge
}

// New builds a server, loads the initial snapshot via load, and starts
// the batch worker. Callers own shutdown: either Run (which drains on
// ctx cancel) or Close directly when driving the Handler themselves.
func New(cfg Config, load Loader) (*Server, error) {
	cfg.fill()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{cfg: cfg, load: load, start: time.Now(), reg: reg}
	s.initMetrics()
	snap, err := load()
	if err != nil {
		return nil, err
	}
	s.install(snap)
	s.bat = newBatcher(cfg.MaxBatch, cfg.MaxWait, cfg.QueueDepth, s.serveBatch)
	s.handler = s.buildMux()
	return s, nil
}

func (s *Server) initMetrics() {
	r := s.reg
	s.met.httpRequests = r.CounterVec("trail_http_requests_total",
		"HTTP requests by path and status code.", "path", "code")
	s.met.attrRequests = r.Counter("trail_attribute_requests_total",
		"Attribution queries admitted to the batching queue.")
	s.met.attrBatched = r.Counter("trail_attribute_batched_requests_total",
		"Attribution queries that shared a forward pass with at least one other query.")
	s.met.attrErrors = r.CounterVec("trail_attribute_errors_total",
		"Attribution queries that failed, by error code.", "code")
	s.met.batches = r.Counter("trail_attribute_batches_total",
		"Forward-pass batches executed.")
	s.met.batchSize = r.Histogram("trail_attribute_batch_size",
		"Requests coalesced per forward pass.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	s.met.attrLatency = r.Histogram("trail_attribute_latency_seconds",
		"End-to-end attribution latency (admission to answer).", metrics.DefBuckets())
	s.met.inferLatency = r.Histogram("trail_inference_seconds",
		"Forward-pass duration per batch.", metrics.DefBuckets())
	s.met.inflight = r.Gauge("trail_inflight_requests",
		"HTTP requests currently being served.")
	s.met.snapshotEpoch = r.Gauge("trail_snapshot_epoch",
		"Epoch of the currently installed snapshot.")
	s.met.reloads = r.Counter("trail_reloads_total",
		"Snapshot reloads that installed successfully.")
	s.met.reloadFails = r.Counter("trail_reload_failures_total",
		"Snapshot reloads that failed and left the old snapshot serving.")
	s.met.nodes = r.Gauge("trail_snapshot_nodes",
		"Nodes in the currently installed snapshot graph.")
	s.met.events = r.Gauge("trail_snapshot_events",
		"Event nodes in the currently installed snapshot graph.")
	// Age is computed at scrape time: a stalled ingest→publish loop shows
	// up as this gauge climbing while trail_snapshot_epoch stands still.
	r.GaugeFunc("trail_snapshot_age_seconds",
		"Seconds since the currently installed snapshot was published.",
		func() float64 {
			snap := s.snap.Load()
			if snap == nil {
				return 0
			}
			return time.Since(snap.LoadedAt).Seconds()
		})
}

// install publishes a snapshot: stamps its epoch and install time, then
// swaps the atomic pointer. In-flight batches keep the snapshot they
// loaded; new batches see the new one on their next pointer load.
func (s *Server) install(snap *Snapshot) {
	snap.Epoch = s.nextEpoch.Add(1)
	snap.LoadedAt = time.Now()
	s.snap.Store(snap)
	s.met.snapshotEpoch.Set(float64(snap.Epoch))
	s.met.nodes.Set(float64(snap.NumNodes))
	s.met.events.Set(float64(snap.NumEvents))
}

// Snapshot returns the currently installed snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Publish installs an externally-built snapshot — the builder-behind-
// server entry point used by streaming ingest, bypassing the Loader.
// Epoch assignment and metric stamping match Reload; in-flight batches
// keep the snapshot they loaded.
func (s *Server) Publish(snap *Snapshot) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.install(snap)
	s.met.reloads.Inc()
	s.cfg.Logf("serve: published snapshot epoch %d (%s, %d nodes, %d events)",
		snap.Epoch, snap.Precision, snap.NumNodes, snap.NumEvents)
}

// Reload builds a fresh snapshot from the Loader and installs it.
// Concurrent reloads serialise; queries are never blocked — they read
// whichever snapshot is installed when their batch runs. On failure the
// old snapshot keeps serving and the error is returned.
func (s *Server) Reload() (*Snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	snap, err := s.load()
	if err != nil {
		s.met.reloadFails.Inc()
		s.cfg.Logf("serve: reload failed, keeping epoch %d: %v", s.Snapshot().Epoch, err)
		return nil, err
	}
	s.install(snap)
	s.met.reloads.Inc()
	s.cfg.Logf("serve: installed snapshot epoch %d (%s, %d nodes, %d events)",
		snap.Epoch, snap.Precision, snap.NumNodes, snap.NumEvents)
	return snap, nil
}

// Close stops the batch worker after draining admitted requests. Call
// after the HTTP listener has stopped accepting (Run does this).
func (s *Server) Close() { s.bat.close() }

// Registry exposes the server's metrics registry (for tests and
// embedding).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// serveBatch answers one coalesced batch. The snapshot pointer is
// loaded exactly once, so every request in the batch — resolution,
// inference and reported epoch — sees one consistent state even if a
// reload lands mid-flight.
func (s *Server) serveBatch(batch []*pending) {
	snap := s.snap.Load()
	live := batch[:0]
	for _, p := range batch {
		if p.ctx.Err() != nil {
			continue // caller already gone; skip its inference cost
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}

	// Resolve each key against the batch snapshot, deduplicating repeated
	// nodes onto one shared inference row.
	rowOf := make(map[graph.NodeID]int, len(live))
	nodeOf := make([]graph.NodeID, len(live))
	resolved := make([]bool, len(live))
	var queries []graph.NodeID
	for i, p := range live {
		id, ok := snap.Lookup(p.kind, p.key)
		if !ok {
			continue
		}
		resolved[i], nodeOf[i] = true, id
		if _, seen := rowOf[id]; !seen {
			rowOf[id] = len(queries)
			queries = append(queries, id)
		}
	}

	var out [][]float64
	if len(queries) > 0 {
		out = make([][]float64, len(queries))
		for i := range out {
			out[i] = make([]float64, snap.Classes())
		}
		t0 := time.Now()
		snap.Attribute(queries, out)
		s.met.inferLatency.Observe(time.Since(t0).Seconds())
	}

	s.met.batches.Inc()
	s.met.batchSize.Observe(float64(len(live)))
	if len(live) > 1 {
		s.met.attrBatched.Add(uint64(len(live)))
	}
	for i, p := range live {
		if !resolved[i] {
			p.done <- result{snap: snap, err: errNotFound}
			continue
		}
		p.done <- result{snap: snap, node: nodeOf[i], probs: out[rowOf[nodeOf[i]]]}
	}
}

// --- HTTP surface ---

type attributeRequest struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
	TopK int    `json:"top_k"`
}

type prediction struct {
	APT         string  `json:"apt"`
	Probability float64 `json:"probability"`
}

type attributeResponse struct {
	Kind        string       `json:"kind"`
	Key         string       `json:"key"`
	NodeID      int64        `json:"node_id"`
	Epoch       uint64       `json:"epoch"`
	Precision   string       `json:"precision"`
	Predictions []prediction `json:"predictions"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: msg}})
}

// errNotFound marks a key that does not resolve in the snapshot graph.
var errNotFound = errors.New("not found")

func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/attribute", s.instrument("/v1/attribute", s.handleAttribute))
	mux.HandleFunc("/v1/stats", s.instrument("/v1/stats", s.handleStats))
	mux.HandleFunc("/v1/reload", s.instrument("/v1/reload", s.handleReload))
	mux.HandleFunc("/v1/sample", s.instrument("/v1/sample", s.handleSample))
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("/metrics", s.reg.Handler())
	return mux
}

// handleHealthz reports liveness, degrading to 503 when the serving
// snapshot has gone stale (Config.StaleAfter): the process is up and
// answering, but whatever feeds it fresh snapshots has stalled.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"reason": "no snapshot loaded",
		})
		return
	}
	age := time.Since(snap.LoadedAt)
	if s.cfg.StaleAfter > 0 && age > s.cfg.StaleAfter {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"reason": fmt.Sprintf("snapshot is stale: age %s exceeds threshold %s", age.Round(time.Second), s.cfg.StaleAfter),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.inflight.Inc()
		defer s.met.inflight.Dec()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.met.httpRequests.With(path, strconv.Itoa(rec.code)).Inc()
	}
}

func (s *Server) handleAttribute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req attributeRequest
	if err := dec.Decode(&req); err != nil {
		s.met.attrErrors.With("invalid_request").Inc()
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	kind, ok := ParseKind(req.Kind)
	if !ok {
		s.met.attrErrors.With("invalid_kind").Inc()
		writeError(w, http.StatusBadRequest, "invalid_kind",
			fmt.Sprintf("unknown kind %q (want event|ip|url|domain|asn)", req.Kind))
		return
	}
	if req.Key == "" {
		s.met.attrErrors.With("invalid_request").Inc()
		writeError(w, http.StatusBadRequest, "invalid_request", "key is required")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	p := &pending{kind: kind, key: req.Key, ctx: ctx, done: make(chan result, 1)}
	startAt := time.Now()
	s.met.attrRequests.Inc()
	if !s.bat.enqueue(p) {
		if ctx.Err() != nil {
			s.met.attrErrors.With("timeout").Inc()
			writeError(w, http.StatusGatewayTimeout, "timeout", "queue admission timed out")
		} else {
			s.met.attrErrors.With("shutting_down").Inc()
			writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is draining")
		}
		return
	}
	select {
	case res := <-p.done:
		s.met.attrLatency.Observe(time.Since(startAt).Seconds())
		if res.err != nil {
			s.met.attrErrors.With("not_found").Inc()
			writeError(w, http.StatusNotFound, "not_found",
				fmt.Sprintf("%s %q not in snapshot epoch %d", req.Kind, req.Key, res.snap.Epoch))
			return
		}
		topK := s.cfg.TopK
		if req.TopK > 0 {
			topK = req.TopK
		}
		writeJSON(w, http.StatusOK, attributeResponse{
			Kind:        req.Kind,
			Key:         req.Key,
			NodeID:      int64(res.node),
			Epoch:       res.snap.Epoch,
			Precision:   res.snap.Precision,
			Predictions: rankPredictions(res.snap.Names, res.probs, topK),
		})
	case <-ctx.Done():
		s.met.attrErrors.With("timeout").Inc()
		writeError(w, http.StatusGatewayTimeout, "timeout", "attribution timed out")
	}
}

// rankPredictions sorts classes by descending probability (index order
// breaks ties deterministically) and keeps the top k (k<=0 keeps all).
func rankPredictions(names []string, probs []float64, k int) []prediction {
	idx := make([]int, len(probs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return probs[idx[a]] > probs[idx[b]] })
	if k > 0 && k < len(idx) {
		idx = idx[:k]
	}
	out := make([]prediction, len(idx))
	for i, c := range idx {
		out[i] = prediction{APT: names[c], Probability: probs[c]}
	}
	return out
}

type statsResponse struct {
	Epoch          uint64         `json:"epoch"`
	Precision      string         `json:"precision"`
	LoadedAt       time.Time      `json:"loaded_at"`
	SnapshotAgeSec float64        `json:"snapshot_age_seconds"`
	UptimeSeconds  float64        `json:"uptime_seconds"`
	Nodes          int            `json:"nodes"`
	Edges          int            `json:"edges"`
	Events         int            `json:"events"`
	LabeledEvents  int            `json:"labeled_events"`
	Classes        int            `json:"classes"`
	Requests       uint64         `json:"requests_total"`
	Batches        uint64         `json:"batches_total"`
	Reloads        uint64         `json:"reloads_total"`
	Extra          map[string]any `json:"extra,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET required")
		return
	}
	snap := s.Snapshot()
	var extra map[string]any
	if s.cfg.ExtraStats != nil {
		extra = s.cfg.ExtraStats()
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Epoch:          snap.Epoch,
		Precision:      snap.Precision,
		LoadedAt:       snap.LoadedAt,
		SnapshotAgeSec: time.Since(snap.LoadedAt).Seconds(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Nodes:          snap.NumNodes,
		Edges:          snap.NumEdges,
		Events:         snap.NumEvents,
		LabeledEvents:  snap.NumLabeled,
		Classes:        snap.Classes(),
		Requests:       s.met.attrRequests.Value(),
		Batches:        s.met.batches.Value(),
		Reloads:        s.met.reloads.Value(),
		Extra:          extra,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	snap, err := s.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reload_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":     snap.Epoch,
		"precision": snap.Precision,
		"nodes":     snap.NumNodes,
		"events":    snap.NumEvents,
	})
}

const sampleLimitCap = 4096

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET required")
		return
	}
	kindName := r.URL.Query().Get("kind")
	if kindName == "" {
		kindName = "event"
	}
	kind, ok := ParseKind(kindName)
	if !ok {
		writeError(w, http.StatusBadRequest, "invalid_kind",
			fmt.Sprintf("unknown kind %q", kindName))
		return
	}
	limit := 64
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid_request", "limit must be a positive integer")
			return
		}
		limit = n
	}
	if limit > sampleLimitCap {
		limit = sampleLimitCap
	}
	snap := s.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"kind":  kindName,
		"epoch": snap.Epoch,
		"keys":  snap.SampleKeys(kind, limit),
	})
}

// Handler returns the server's HTTP surface, for embedding and tests.
func (s *Server) Handler() http.Handler { return s.handler }

// Run serves on addr until ctx is cancelled, then drains: the listener
// stops accepting, in-flight handlers finish (bounded by DrainTimeout),
// and finally the batch worker drains its queue and exits.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	s.cfg.Logf("serve: listening on %s (epoch %d, %s)",
		ln.Addr(), s.Snapshot().Epoch, s.Snapshot().Precision)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	s.cfg.Logf("serve: draining (timeout %s)", s.cfg.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err = srv.Shutdown(dctx)
	s.Close()
	s.cfg.Logf("serve: stopped")
	return err
}
