// Package metrics implements the zero-dependency instrumentation layer
// of the serving daemon: counters, gauges and histograms rendered in the
// Prometheus text exposition format (version 0.0.4), the lingua franca
// every scrape pipeline understands.
//
// The package deliberately reimplements a small slice of the official
// client library instead of importing it — the repository's no-new-deps
// rule, and the serving hot path only needs lock-free Inc/Observe:
//
//   - Counter and Gauge are single atomic words.
//   - Histogram is a fixed bucket ladder of atomic words plus a CAS-added
//     float sum, so Observe never takes a lock.
//   - CounterVec adds one RWMutex-guarded map lookup for labelled
//     counters; callers on hot paths should hold the resolved *Counter.
//
// Metrics are registered on a Registry and rendered in registration
// order, with deterministic label ordering, so scrapes (and tests) see
// stable output.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered family: it knows how to render its samples.
type metric interface {
	name() string
	render(w io.Writer)
}

// Registry holds a set of metric families. The zero value is not usable;
// use NewRegistry. Registration is not safe for concurrent use (wire
// metrics at startup); rendering and metric updates are.
type Registry struct {
	mu       sync.Mutex
	families []metric
	byName   map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name()]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", m.name()))
	}
	r.byName[m.name()] = m
	r.families = append(r.families, m)
}

// WriteTo renders every registered family in the Prometheus text format,
// in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]metric(nil), r.families...)
	r.mu.Unlock()
	cw := &countingWriter{w: w}
	for _, m := range fams {
		m.render(cw)
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	return cw.n, nil
}

// Handler returns an http.Handler serving the registry in the text
// exposition format — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// --- Counter -----------------------------------------------------------------

// Counter is a monotonically increasing integer metric.
type Counter struct {
	n         atomic.Uint64
	nm, help  string
	labelLine string // pre-rendered {k="v",...} for vec members, "" otherwise
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{nm: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n (which must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

func (c *Counter) name() string { return c.nm }

func (c *Counter) render(w io.Writer) {
	header(w, c.nm, c.help, "counter")
	fmt.Fprintf(w, "%s%s %d\n", c.nm, c.labelLine, c.n.Load())
}

// --- CounterVec --------------------------------------------------------------

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct {
	nm, help string
	keys     []string
	mu       sync.RWMutex
	children map[string]*Counter
	order    []string
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("metrics: CounterVec needs at least one label")
	}
	v := &CounterVec{nm: name, help: help, keys: labels, children: make(map[string]*Counter)}
	r.register(v)
	return v
}

// With returns the child counter for the given label values (one per
// registered label, in order), creating it on first use. The returned
// counter may be retained; hot paths should resolve once and hold it.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", v.nm, len(v.keys), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[key]; c != nil {
		return c
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range v.keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	c = &Counter{nm: v.nm, help: v.help, labelLine: sb.String()}
	v.children[key] = c
	v.order = append(v.order, key)
	return c
}

func (v *CounterVec) name() string { return v.nm }

func (v *CounterVec) render(w io.Writer) {
	header(w, v.nm, v.help, "counter")
	v.mu.RLock()
	// Children render in sorted label order so output is independent of
	// first-use order.
	keys := append([]string(nil), v.order...)
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		c := v.children[k]
		v.mu.RUnlock()
		fmt.Fprintf(w, "%s%s %d\n", c.nm, c.labelLine, c.n.Load())
	}
}

// --- Gauge -------------------------------------------------------------------

// Gauge is a metric that can go up and down, stored as float64 bits in
// one atomic word.
type Gauge struct {
	bits     atomic.Uint64
	nm, help string
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{nm: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta via CAS (safe for concurrent adders).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one. Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) name() string { return g.nm }

func (g *Gauge) render(w io.Writer) {
	header(w, g.nm, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.nm, formatFloat(g.Value()))
}

// GaugeFunc is a gauge whose value is computed at scrape time — the
// right shape for continuously-moving quantities (snapshot age, queue
// depth) where a stored value would be stale the instant it was set.
// fn must be safe for concurrent use and must not block.
type GaugeFunc struct {
	nm, help string
	fn       func() float64
}

// GaugeFunc registers a callback-backed gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{nm: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) name() string { return g.nm }

func (g *GaugeFunc) render(w io.Writer) {
	header(w, g.nm, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.nm, formatFloat(g.fn()))
}

// --- Histogram ---------------------------------------------------------------

// Histogram counts observations into a fixed ladder of upper-bound
// buckets, rendered cumulatively with the conventional _bucket/_sum/_count
// series. Observe is lock-free.
type Histogram struct {
	nm, help string
	bounds   []float64       // strictly increasing upper bounds, +Inf implicit
	counts   []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sumBits  atomic.Uint64
	total    atomic.Uint64
}

// DefBuckets is the default latency ladder, in seconds: 0.5ms to 5s.
func DefBuckets() []float64 {
	return []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5}
}

// Histogram registers and returns a histogram with the given upper
// bounds, which must be strictly increasing. A +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: Histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bucket bounds not increasing at %d", name, i))
		}
	}
	h := &Histogram{
		nm:     name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) name() string { return h.nm }

func (h *Histogram) render(w io.Writer) {
	header(w, h.nm, h.help, "histogram")
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.nm, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.nm, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", h.nm, h.total.Load())
}
