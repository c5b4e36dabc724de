package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"trail/internal/core"
	"trail/internal/graph"
)

// TableIIResult is the dataset report experiment (Table II).
type TableIIResult struct {
	Report core.Report
}

// RunTableII computes the TKG dataset report.
func RunTableII(ctx *Context) *TableIIResult {
	return &TableIIResult{Report: ctx.TKG.Stats()}
}

// Render prints the Table II rows.
func (r *TableIIResult) Render() string {
	return "Table II: Node and edge counts in the TKG\n" + r.Report.String()
}

// Figure4Result is the IOC reuse distribution (Fig. 4).
type Figure4Result struct {
	Histogram map[graph.NodeKind][]core.ReuseBucket
}

// RunFigure4 computes the reuse histogram per IOC kind.
func RunFigure4(ctx *Context) *Figure4Result {
	return &Figure4Result{Histogram: ctx.TKG.ReuseHistogram()}
}

// Render draws a log-log text plot of reuse count vs IOC count per kind,
// the shape Fig. 4 reports (heavy head at reuse=1, long thin tail).
func (r *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: IOC reuse by IOC type (log10 counts)\n")
	kinds := []graph.NodeKind{graph.KindIP, graph.KindURL, graph.KindDomain}
	for _, k := range kinds {
		buckets := r.Histogram[k]
		if len(buckets) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", k)
		for _, bk := range buckets {
			bar := strings.Repeat("#", int(math.Round(10*math.Log10(float64(bk.Count)+1))))
			fmt.Fprintf(&b, "  reuse=%-4d %8d %s\n", bk.Reuse, bk.Count, bar)
		}
	}
	return b.String()
}

// SingleUseFraction returns the fraction of first-order IOCs of kind k
// seen in exactly one event; the paper's Fig. 4 shows this dominates.
func (r *Figure4Result) SingleUseFraction(k graph.NodeKind) float64 {
	buckets := r.Histogram[k]
	total, ones := 0, 0
	for _, bk := range buckets {
		total += bk.Count
		if bk.Reuse == 1 {
			ones = bk.Count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ones) / float64(total)
}

// GraphStatsResult is the connectivity analysis of §IV-§V.
type GraphStatsResult struct {
	Stats core.ConnectivityStats
}

// RunGraphStats computes component structure, diameter and event
// proximity.
func RunGraphStats(ctx *Context) *GraphStatsResult {
	return &GraphStatsResult{Stats: ctx.TKG.Connectivity()}
}

// Render prints the connectivity summary.
func (r *GraphStatsResult) Render() string {
	s := r.Stats
	var b strings.Builder
	b.WriteString("Graph structure (paper §IV-§V):\n")
	fmt.Fprintf(&b, "  connected components:          %d\n", s.Components)
	fmt.Fprintf(&b, "  largest component:             %d nodes (%.2f%%)\n", s.LargestComponent, s.LargestComponentPct)
	fmt.Fprintf(&b, "  pseudo-diameter:               %d\n", s.Diameter)
	fmt.Fprintf(&b, "  events within 2 hops of event: %d (%.1f%%)\n", s.EventsWithin2Hops, s.EventsWithin2HopsPct)
	fmt.Fprintf(&b, "  first-order-only components:   %d\n", s.FirstOrderComponents)
	fmt.Fprintf(&b, "  first-order-only diameter:     %d\n", s.FirstOrderDiameter)
	return b.String()
}

// MostReusedIOCs returns the top-n first-order IOCs by event count — the
// paper's observation that the most repeated IOCs are C2 infrastructure.
func MostReusedIOCs(ctx *Context, n int) []graph.Node {
	var nodes []graph.Node
	ctx.TKG.G.ForEachNode(func(nd graph.Node) {
		if nd.FirstOrder && nd.EventCount > 1 {
			nodes = append(nodes, nd)
		}
	})
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].EventCount > nodes[j].EventCount })
	if n > len(nodes) {
		n = len(nodes)
	}
	return nodes[:n]
}
