package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"trail/internal/sparse"
)

// benchBase builds a synthetic scale-free-ish graph: n IOC nodes wired
// by preferential attachment (each new node links to endpoints of
// earlier edges), which reproduces the hub-heavy degree profile real
// TKGs show and keeps the degree-descending reorder path exercised
// (n must be >= sparse.ReorderMinRows for the reorder cache to engage).
func benchBase(n, edgesPer int, rng *rand.Rand) *Graph {
	g := New()
	ids := make([]NodeID, 0, n)
	var ends []NodeID
	for i := 0; i < n; i++ {
		id, _ := g.Upsert(KindIP, fmt.Sprintf("ip-%d", i))
		ids = append(ids, id)
		for j := 0; j < edgesPer && i > 0; j++ {
			var v NodeID
			if len(ends) > 0 && rng.Intn(2) == 0 {
				v = ends[rng.Intn(len(ends))] // preferential attachment
			} else {
				v = ids[rng.Intn(i)]
			}
			if v != id && g.AddEdge(id, v, EdgeARecord) {
				ends = append(ends, id, v)
			}
		}
	}
	return g
}

// applyEventDelta mutates g with one event-shaped delta: a fresh event
// node plus fanout edges to random existing nodes, the structural
// signature of a single ingested pulse.
func applyEventDelta(g *Graph, seq int, fanout int, rng *rand.Rand) {
	id, _ := g.Upsert(KindEvent, fmt.Sprintf("evt-%d", seq))
	n := g.NumNodes()
	for j := 0; j < fanout; j++ {
		g.AddEdge(id, NodeID(rng.Intn(n-1)), EdgeInReport)
	}
}

// perEventOp refreshes the streaming label-propagation operator the way
// ingest does after every applied event: LiveCSR plus its sym
// normalisation, a zero-copy slacked view with the maintained sym values
// installed.
func perEventOp(b *testing.B, g *Graph) {
	if g.LiveCSR().SymNormalized() == nil {
		b.Fatal("nil sym")
	}
}

// cutChain emits the packed snapshot and drives the serving-side
// consumer chain off it: float32 cast, degree reorder, mean
// normalisation (the GNN input operators). The snapshot is spliced from
// the previous one and every step hits a pre-installed or carried cache.
func cutChain(b *testing.B, g *Graph) {
	c := sparse.Cast[float32](g.CSR())
	rm, _ := c.Reordered()
	if rm.MeanNormalized() == nil {
		b.Fatal("nil mean")
	}
}

// BenchmarkCSRPatch measures the graph-engine refresh for one
// event-shaped delta followed by a snapshot emission on a ~20k-node
// scale-free base: the emission splices the slot rows (targeted
// renormalisation, sticky permutation). Emitted snapshots are pinned
// bit-identical to a from-scratch pack by TestCSRPatchFuzz.
func BenchmarkCSRPatch(b *testing.B) {
	b.Run("patch", func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		g := benchBase(20_000, 6, rng)
		g.EnableCSRPatch(true)
		g.CSR() // warm: first emission above the reorder gate full-sorts
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			applyEventDelta(g, i, 8, rng)
			b.StartTimer()
			perEventOp(b, g)
			cutChain(b, g)
		}
	})
}
