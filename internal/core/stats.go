package core

import (
	"fmt"
	"sort"
	"strings"

	"trail/internal/graph"
)

// KindStats is one row of the Table II dataset report.
type KindStats struct {
	Kind          graph.NodeKind
	Nodes         int
	Edges         int // sum of degrees of nodes of this kind (paper's per-type edge count)
	AvgDegree     float64
	FirstOrderPct float64 // % of nodes listed directly in a report (NaN-free: 0 if n/a)
	AvgReuse      float64 // mean events per first-order IOC
}

// Report is the full dataset report of §V.
type Report struct {
	PerKind []KindStats
	Total   KindStats

	SkippedPulses int
}

// Stats computes the Table II dataset report.
func (t *TKG) Stats() Report {
	type acc struct {
		nodes, degSum, firstOrder, reuseSum, reuseN int
	}
	accs := make(map[graph.NodeKind]*acc)
	for _, k := range graph.Kinds() {
		accs[k] = &acc{}
	}
	t.G.ForEachNode(func(n graph.Node) {
		a := accs[n.Kind]
		a.nodes++
		a.degSum += t.G.Degree(n.ID)
		if n.FirstOrder {
			a.firstOrder++
			a.reuseSum += n.EventCount
			a.reuseN++
		}
	})

	var rep Report
	var tot acc
	for _, k := range graph.Kinds() {
		a := accs[k]
		ks := KindStats{Kind: k, Nodes: a.nodes, Edges: a.degSum}
		if a.nodes > 0 {
			ks.AvgDegree = float64(a.degSum) / float64(a.nodes)
		}
		if k != graph.KindEvent && k != graph.KindASN && a.nodes > 0 {
			ks.FirstOrderPct = 100 * float64(a.firstOrder) / float64(a.nodes)
		}
		if a.reuseN > 0 && k != graph.KindEvent {
			ks.AvgReuse = float64(a.reuseSum) / float64(a.reuseN)
		}
		rep.PerKind = append(rep.PerKind, ks)
		tot.nodes += a.nodes
		tot.degSum += a.degSum
		if k != graph.KindEvent && k != graph.KindASN {
			tot.firstOrder += a.firstOrder
			tot.reuseSum += a.reuseSum
			tot.reuseN += a.reuseN
		}
	}
	rep.Total = KindStats{Nodes: tot.nodes, Edges: tot.degSum}
	if tot.nodes > 0 {
		rep.Total.AvgDegree = float64(tot.degSum) / float64(tot.nodes)
	}
	iocNodes := tot.nodes - accs[graph.KindEvent].nodes - accs[graph.KindASN].nodes
	if iocNodes > 0 {
		rep.Total.FirstOrderPct = 100 * float64(tot.firstOrder) / float64(iocNodes)
	}
	if tot.reuseN > 0 {
		rep.Total.AvgReuse = float64(tot.reuseSum) / float64(tot.reuseN)
	}
	rep.SkippedPulses = t.SkippedPulses
	return rep
}

// String renders the report as a Table II-style text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %9s\n",
		"Type", "Nodes", "Edges", "AvgDeg", "1stOrder%", "AvgReuse")
	row := func(name string, s KindStats) {
		fmt.Fprintf(&b, "%-8s %10d %10d %10.3f %10.2f %9.3f\n",
			name, s.Nodes, s.Edges, s.AvgDegree, s.FirstOrderPct, s.AvgReuse)
	}
	for _, s := range r.PerKind {
		row(s.Kind.String()+"s", s)
	}
	row("Total", r.Total)
	return b.String()
}

// ReuseBucket is one point of the Fig. 4 reuse distribution: Count IOCs
// of the kind appeared in exactly Reuse events.
type ReuseBucket struct {
	Reuse int
	Count int
}

// ReuseHistogram returns, per IOC kind, the distribution of how many
// distinct events each first-order IOC appeared in (Fig. 4).
func (t *TKG) ReuseHistogram() map[graph.NodeKind][]ReuseBucket {
	hist := make(map[graph.NodeKind]map[int]int)
	t.G.ForEachNode(func(n graph.Node) {
		if !n.FirstOrder || n.EventCount == 0 {
			return
		}
		m := hist[n.Kind]
		if m == nil {
			m = make(map[int]int)
			hist[n.Kind] = m
		}
		m[n.EventCount]++
	})
	out := make(map[graph.NodeKind][]ReuseBucket, len(hist))
	for k, m := range hist {
		buckets := make([]ReuseBucket, 0, len(m))
		for reuse, count := range m {
			buckets = append(buckets, ReuseBucket{Reuse: reuse, Count: count})
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].Reuse < buckets[j].Reuse })
		out[k] = buckets
	}
	return out
}

// ConnectivityStats bundles the graph-structure observations of §IV-§V:
// component structure, diameter estimate, and event proximity.
type ConnectivityStats struct {
	Components           int
	LargestComponent     int
	LargestComponentPct  float64
	Diameter             int // pseudo-diameter of the largest component
	EventsWithin2Hops    int // events with another event within 2 hops
	EventsWithin2HopsPct float64
	FirstOrderComponents int // component count of the first-order-only subgraph
	FirstOrderDiameter   int
}

// Connectivity computes the connectivity statistics. It is O(V+E) per
// BFS and runs one BFS per event for the proximity statistic, so cost is
// bounded by events * (V+E).
func (t *TKG) Connectivity() ConnectivityStats {
	adj := t.G.CSR()
	var cs ConnectivityStats

	_, sizes := graph.ConnectedComponents(adj)
	cs.Components = len(sizes)
	for _, s := range sizes {
		if s > cs.LargestComponent {
			cs.LargestComponent = s
		}
	}
	if n := t.G.NumNodes(); n > 0 {
		cs.LargestComponentPct = 100 * float64(cs.LargestComponent) / float64(n)
	}
	if members, _ := graph.LargestComponent(adj); len(members) > 0 {
		cs.Diameter = graph.PseudoDiameter(adj, members[0], 6)
	}

	events := t.EventNodes()
	cs.EventsWithin2Hops = graph.CountWithinHops(adj, events, 2)
	if len(events) > 0 {
		cs.EventsWithin2HopsPct = 100 * float64(cs.EventsWithin2Hops) / float64(len(events))
	}

	// First-order subgraph: events + first-order IOCs only.
	keep := make([]bool, t.G.NumNodes())
	t.G.ForEachNode(func(n graph.Node) {
		keep[n.ID] = n.Kind == graph.KindEvent || n.FirstOrder
	})
	sub := graph.InducedAdjacency(adj, func(id graph.NodeID) bool { return keep[id] })
	subLabels, subSizes := graph.ConnectedComponents(sub)
	// Discard singleton components formed by excluded nodes.
	excluded := 0
	for id := range keep {
		if !keep[id] {
			excluded++
		}
	}
	_ = subLabels
	cs.FirstOrderComponents = len(subSizes) - excluded
	if members, _ := graph.LargestComponent(sub); len(members) > 0 {
		cs.FirstOrderDiameter = graph.PseudoDiameter(sub, members[0], 6)
	}
	return cs
}
