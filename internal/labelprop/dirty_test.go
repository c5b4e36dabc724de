package labelprop

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"trail/internal/graph"
	"trail/internal/mat/mattest"
)

// randomGrow mutates g with nNodes new nodes and nEdges new edges drawn
// from rng, returning the label assignment changes it made to seeds.
func randomGrow(rng *rand.Rand, g *graph.Graph, seeds map[graph.NodeID]int, nNodes, nEdges, nLabels, classes int) {
	base := g.NumNodes()
	for i := 0; i < nNodes; i++ {
		kind := graph.Kinds()[rng.Intn(5)]
		g.Upsert(kind, fmt.Sprintf("%s-%d-%d", kind, base, i))
	}
	total := g.NumNodes()
	for i := 0; i < nEdges && total > 1; i++ {
		u := graph.NodeID(rng.Intn(total))
		v := graph.NodeID(rng.Intn(total))
		g.AddEdge(u, v, graph.EdgeTypes()[rng.Intn(5)])
	}
	for i := 0; i < nLabels; i++ {
		seeds[graph.NodeID(rng.Intn(total))] = rng.Intn(classes)
	}
}

// TestPropagateDirtyMatchesFull grows a graph in random batches and
// checks after every batch that incremental re-convergence is
// bit-identical to a from-scratch run: same Z, same iteration history.
func TestPropagateDirtyMatchesFull(t *testing.T) {
	for _, layers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("layers=%d", layers), func(t *testing.T) {
			const classes = 5
			rng := rand.New(rand.NewSource(int64(42 + layers)))
			g := graph.New()
			g.TrackDirty(true)
			seeds := make(map[graph.NodeID]int)
			// Initial population, then a full-history run.
			randomGrow(rng, g, seeds, 40, 80, 6, classes)
			g.DrainDirty()
			st := PropagateFull(g.CSR(), seeds, classes, layers)
			mattest.BitEqual(t, "initial Z", st.Z, PropagateCSR(g.CSR(), seeds, classes, layers))

			for step := 0; step < 12; step++ {
				// Mix of growth shapes: node-only, edge-only (including
				// edges between long-existing nodes), label-only, and a
				// single-event-like batch.
				switch step % 4 {
				case 0:
					randomGrow(rng, g, seeds, 3, 6, 0, classes)
				case 1:
					randomGrow(rng, g, seeds, 0, 5, 0, classes)
				case 2:
					randomGrow(rng, g, seeds, 0, 0, 2, classes)
				default:
					randomGrow(rng, g, seeds, 1, 3, 1, classes)
				}
				dirty := slices.Clone(g.DrainDirty())
				st = PropagateDirty(g.CSR(), seeds, classes, layers, st, dirty)
				want := PropagateFull(g.CSR(), seeds, classes, layers)
				name := fmt.Sprintf("step %d Z", step)
				mattest.BitEqual(t, name, st.Z, want.Z)
				for l := range want.F {
					mattest.BitEqual(t, fmt.Sprintf("step %d F_%d", step, l+1), st.F[l], want.F[l])
				}
				if st.LastFrontier > g.NumNodes() {
					t.Fatalf("step %d: frontier %d exceeds graph", step, st.LastFrontier)
				}
			}
		})
	}
}

// TestPropagateDirtySeedRemoval: removing a seed (label retraction) is
// re-converged incrementally too.
func TestPropagateDirtySeedRemoval(t *testing.T) {
	const classes, layers = 4, 3
	rng := rand.New(rand.NewSource(7))
	g := graph.New()
	g.TrackDirty(true)
	seeds := make(map[graph.NodeID]int)
	randomGrow(rng, g, seeds, 30, 60, 8, classes)
	g.DrainDirty()
	st := PropagateFull(g.CSR(), seeds, classes, layers)
	for id := range seeds {
		delete(seeds, id)
		break
	}
	st = PropagateDirty(g.CSR(), seeds, classes, layers, st, nil)
	mattest.BitEqual(t, "after removal", st.Z, PropagateCSR(g.CSR(), seeds, classes, layers))
}

// TestPropagateDirtyNoChange: an empty batch recomputes nothing.
func TestPropagateDirtyNoChange(t *testing.T) {
	const classes, layers = 3, 2
	rng := rand.New(rand.NewSource(9))
	g := graph.New()
	g.TrackDirty(true)
	seeds := make(map[graph.NodeID]int)
	randomGrow(rng, g, seeds, 20, 40, 4, classes)
	g.DrainDirty()
	st := PropagateFull(g.CSR(), seeds, classes, layers)
	st = PropagateDirty(g.CSR(), seeds, classes, layers, st, nil)
	if st.LastFrontier != 0 {
		t.Fatalf("no-op batch recomputed %d rows", st.LastFrontier)
	}
	mattest.BitEqual(t, "unchanged Z", st.Z, PropagateCSR(g.CSR(), seeds, classes, layers))
}

// TestPropagateDirtyNilPrev falls back to a full run.
func TestPropagateDirtyNilPrev(t *testing.T) {
	const classes, layers = 3, 2
	rng := rand.New(rand.NewSource(11))
	g := graph.New()
	seeds := make(map[graph.NodeID]int)
	randomGrow(rng, g, seeds, 15, 30, 3, classes)
	st := PropagateDirty(g.CSR(), seeds, classes, layers, nil, nil)
	if st.LastFrontier != g.NumNodes() {
		t.Fatalf("nil prev frontier %d, want full %d", st.LastFrontier, g.NumNodes())
	}
	mattest.BitEqual(t, "full fallback", st.Z, PropagateCSR(g.CSR(), seeds, classes, layers))
}

// TestPropagateDirtyMatchesReorderedCSR pushes the graph past the
// cache-reordering gate so the PropagateCSR comparison point runs the
// permuted fast path: the incremental state must stay bit-identical to
// it, not just to the unpermuted loop.
func TestPropagateDirtyMatchesReorderedCSR(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const classes, layers = 6, 4
	rng := rand.New(rand.NewSource(23))
	g := graph.New()
	g.TrackDirty(true)
	seeds := make(map[graph.NodeID]int)
	randomGrow(rng, g, seeds, 1400, 4000, 60, classes)
	g.DrainDirty()
	st := PropagateFull(g.CSR(), seeds, classes, layers)
	for step := 0; step < 3; step++ {
		randomGrow(rng, g, seeds, 5, 20, 2, classes)
		st = PropagateDirty(g.CSR(), seeds, classes, layers, st, slices.Clone(g.DrainDirty()))
		mattest.BitEqual(t, fmt.Sprintf("step %d vs reordered", step),
			st.Z, PropagateCSR(g.CSR(), seeds, classes, layers))
	}
}
