package core

import (
	"fmt"
	"sort"
	"strings"

	"trail/internal/graph"
	"trail/internal/ioc"
	"trail/internal/osint"
)

// BuildReport summarises what happened to enrichment during a TKG build:
// how many pulses were merged or skipped, how many enrichment calls
// failed after the resilience middleware gave up, and how many IOC nodes
// were degraded to imputed features as a result. When the enrichment
// stack exposes resilience metrics (osint.MetricsSource), the snapshot is
// attached so operators see attempts, retries and breaker trips alongside
// the graph-level damage.
type BuildReport struct {
	// Pulses is the number of pulses offered to the build.
	Pulses int
	// Merged is the number of pulses that became event nodes.
	Merged int
	// Skipped is the number of pulses discarded by tag resolution.
	Skipped int
	// EnrichErrors is the number of enrichment lookups that failed after
	// the middleware exhausted its options (each may degrade a node).
	EnrichErrors int
	// DegradedByKind counts IOC nodes flagged Degraded, per node kind.
	DegradedByKind map[graph.NodeKind]int
	// Resilience is the middleware counter snapshot, or nil when the
	// enrichment stack exposes none (e.g. the plain synthetic World).
	Resilience *osint.ResilienceMetrics
}

// Degraded returns the total number of degraded IOC nodes.
func (r *BuildReport) Degraded() int {
	n := 0
	for _, c := range r.DegradedByKind {
		n += c
	}
	return n
}

// Render formats the report for CLI output.
func (r *BuildReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "build report: %d pulses (%d merged, %d skipped), %d enrichment failures, %d degraded nodes\n",
		r.Pulses, r.Merged, r.Skipped, r.EnrichErrors, r.Degraded())
	if len(r.DegradedByKind) > 0 {
		kinds := make([]graph.NodeKind, 0, len(r.DegradedByKind))
		for k := range r.DegradedByKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			fmt.Fprintf(&b, "  degraded %-7s %d\n", k, r.DegradedByKind[k])
		}
	}
	if r.Resilience != nil {
		t := r.Resilience.Totals()
		fmt.Fprintf(&b, "  enrichment: %d attempts, %d retries, %d timeouts, %d breaker trips, %d rejected\n",
			t.Attempts, t.Retries, t.Timeouts, t.Trips, t.Rejected)
	}
	return b.String()
}

// imputer maintains per-IOC-type running feature means over successfully
// enriched vectors, and fills the enrichment-derived dimensions of a
// failed extraction with those means (zeros until the first success).
// Lexically derived dimensions — computable from the indicator string
// alone — are already set in the failed vector and are preserved.
type imputer struct {
	sum   map[ioc.Type][]float64
	count map[ioc.Type]int
}

func newImputer() *imputer {
	return &imputer{sum: make(map[ioc.Type][]float64), count: make(map[ioc.Type]int)}
}

// observe folds a successfully enriched vector into the running mean.
func (im *imputer) observe(t ioc.Type, v []float64) {
	s := im.sum[t]
	if s == nil {
		s = make([]float64, len(v))
		im.sum[t] = s
	}
	if len(s) != len(v) {
		return // defensive: dimensionality is fixed per type
	}
	for i, x := range v {
		s[i] += x
	}
	im.count[t]++
}

// impute fills the zero dimensions of v with the running mean for type t.
// Non-zero dimensions (lexical features the extractor computed without
// the provider) are kept as measured.
func (im *imputer) impute(t ioc.Type, v []float64) {
	s := im.sum[t]
	n := im.count[t]
	if s == nil || n == 0 || len(s) != len(v) {
		return // no observations yet: the zero vector is the fallback
	}
	inv := 1 / float64(n)
	for i := range v {
		if v[i] == 0 {
			v[i] = s[i] * inv
		}
	}
}
