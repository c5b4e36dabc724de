package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trail/internal/metrics"
)

// Config carries the operational knobs of the attribution server. Zero
// values select the documented defaults.
type Config struct {
	// MaxBatch is ignored: every /v1/attribute request is answered on
	// its own handler goroutine, so there is no batch to cap.
	MaxBatch int
	// MaxBody caps the request body size in bytes (default 1<<20).
	MaxBody int64
	// TopK is the default number of ranked predictions per answer
	// (default 5; requests may override, 0 means all classes).
	TopK int
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
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.TopK == 0 {
		c.TopK = 5
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server is the attribution daemon: an atomic snapshot pointer whose
// answer table each request reads on its own handler goroutine, and the
// HTTP surface (/v1/attribute, /v1/stats, /v1/reload, /v1/sample,
// /healthz, /metrics).
type Server struct {
	cfg  Config
	load Loader

	snap      atomic.Pointer[Snapshot]
	nextEpoch atomic.Uint64
	reloadMu  sync.Mutex // serialises Reload; readers never take it

	closed  atomic.Bool
	start   time.Time
	handler http.Handler

	reg *metrics.Registry
	met serveMetrics
}

type serveMetrics struct {
	httpRequests  *metrics.CounterVec // path, code
	attrRequests  *metrics.Counter
	attrErrors    *metrics.CounterVec // code
	attrLatency   *metrics.Histogram
	buildLatency  *metrics.Histogram
	inflight      *metrics.Gauge
	snapshotEpoch *metrics.Gauge
	reloads       *metrics.Counter
	reloadFails   *metrics.Counter
	nodes, events *metrics.Gauge
}

// New builds a server and loads the initial snapshot via load. Callers
// own shutdown: either Run (which drains on ctx cancel) or Close
// directly when driving the Handler themselves.
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
	s.handler = s.buildMux()
	return s, nil
}

func (s *Server) initMetrics() {
	r := s.reg
	s.met.httpRequests = r.CounterVec("trail_http_requests_total",
		"HTTP requests by path and status code.", "path", "code")
	s.met.attrRequests = r.Counter("trail_attribute_requests_total",
		"Well-formed attribution queries received.")
	s.met.attrErrors = r.CounterVec("trail_attribute_errors_total",
		"Attribution queries that failed, by error code.", "code")
	// An answer is one table-row read, ~10 µs: the ladder starts in
	// microseconds so the buckets resolve it.
	s.met.attrLatency = r.Histogram("trail_attribute_latency_seconds",
		"Attribution latency from decoded request to ranked answer.",
		[]float64{5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1})
	s.met.buildLatency = r.Histogram("trail_snapshot_build_seconds",
		"Snapshot construction time (input build and the forward pass that fills its answer table).",
		[]float64{.01, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60})
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
// swaps the atomic pointer. In-flight requests keep the snapshot they
// loaded; new requests see the new one.
func (s *Server) install(snap *Snapshot) {
	snap.Epoch = s.nextEpoch.Add(1)
	snap.LoadedAt = time.Now()
	s.snap.Store(snap)
	s.met.snapshotEpoch.Set(float64(snap.Epoch))
	s.met.nodes.Set(float64(snap.NumNodes))
	s.met.events.Set(float64(snap.NumEvents))
	s.met.buildLatency.Observe(snap.BuildTime().Seconds())
}

// Snapshot returns the currently installed snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Publish installs an externally-built snapshot — the builder-behind-
// server entry point used by streaming ingest, bypassing the Loader.
// Epoch assignment and metric stamping match Reload; in-flight requests
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
// whichever snapshot is installed when they arrive. On failure the
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

// Close marks the server closed: later /v1/attribute requests get 503
// shutting_down. Call after the HTTP listener has stopped accepting (Run
// does this); requests already in a handler finish on their snapshot.
func (s *Server) Close() { s.closed.Store(true) }

// Registry exposes the server's metrics registry (for tests and
// embedding).
func (s *Server) Registry() *metrics.Registry { return s.reg }

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

	s.met.attrRequests.Inc()
	if s.closed.Load() {
		s.met.attrErrors.With("shutting_down").Inc()
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is draining")
		return
	}

	// One pointer load: the epoch, node and row of this answer all come
	// from the same snapshot even if a reload lands mid-request.
	startAt := time.Now()
	snap := s.snap.Load()
	id, ok := snap.Lookup(kind, req.Key)
	if !ok {
		s.met.attrLatency.Observe(time.Since(startAt).Seconds())
		s.met.attrErrors.With("not_found").Inc()
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("%s %q not in snapshot epoch %d", req.Kind, req.Key, snap.Epoch))
		return
	}
	topK := s.cfg.TopK
	if req.TopK > 0 {
		topK = req.TopK
	}
	row := snap.table[int(id)*snap.classes : (int(id)+1)*snap.classes]
	resp := attributeResponse{
		Kind:        req.Kind,
		Key:         req.Key,
		NodeID:      int64(id),
		Epoch:       snap.Epoch,
		Precision:   snap.Precision,
		Predictions: rankPredictions(snap.Names, row, topK),
	}
	s.met.attrLatency.Observe(time.Since(startAt).Seconds())
	writeJSON(w, http.StatusOK, resp)
}

// rankPredictions sorts classes by descending probability (index order
// breaks ties deterministically) and keeps the top k (k<=0 keeps all).
func rankPredictions(names []string, probs []float64, k int) []prediction {
	idx := make([]int, len(probs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case probs[a] > probs[b]:
			return -1
		case probs[a] < probs[b]:
			return 1
		}
		return 0
	})
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
// stops accepting and in-flight handlers finish (bounded by
// DrainTimeout), then the server is closed.
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
