package labelprop

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/par"
	"trail/internal/sparse"
)

// chain builds a path graph 0-1-2-...-n-1 and returns its adjacency.
func chain(n int) [][]graph.NodeID {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.Upsert(graph.KindEvent, string(rune('a'+i)))
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), graph.EdgeInReport)
	}
	return g.Adjacency()
}

func TestPropagateReachesWithinLayers(t *testing.T) {
	adj := chain(5)
	seeds := map[graph.NodeID]int{0: 0}
	f2 := PropagateCSR(sparse.FromAdj(adj), seeds, 2, 2)
	// Node 2 is exactly 2 hops away: reachable at 2 layers.
	if f2.At(2, 0) <= 0 {
		t.Fatal("2-hop node not reached in 2 layers")
	}
	// Node 3 is 3 hops away: must NOT be reached in 2 layers.
	if f2.At(3, 0) != 0 {
		t.Fatalf("3-hop node reached in 2 layers: %v", f2.At(3, 0))
	}
	f3 := PropagateCSR(sparse.FromAdj(adj), seeds, 2, 3)
	if f3.At(3, 0) <= 0 {
		t.Fatal("3-hop node not reached in 3 layers")
	}
}

func TestPredictUnreachableIsMinusOne(t *testing.T) {
	adj := chain(3)
	// Add an isolated node.
	adj = append(adj, nil)
	seeds := map[graph.NodeID]int{0: 1}
	preds := Predict(PropagateCSR(sparse.FromAdj(adj), seeds, 2, 4), []graph.NodeID{2, 3})
	if preds[0] != 1 {
		t.Fatalf("reachable node predicted %d", preds[0])
	}
	if preds[1] != -1 {
		t.Fatalf("isolated node predicted %d, want -1", preds[1])
	}
}

func TestCloserSeedWins(t *testing.T) {
	// 0(seed A) - 1 - 2(query) - 3 - 4 - 5(seed B): query is closer to A.
	adj := chain(6)
	seeds := map[graph.NodeID]int{0: 0, 5: 1}
	f := PropagateCSR(sparse.FromAdj(adj), seeds, 2, 4)
	row := f.Row(2)
	if row[0] <= row[1] {
		t.Fatalf("closer seed should dominate: %v", row)
	}
	preds := Predict(f, []graph.NodeID{2})
	if preds[0] != 0 {
		t.Fatalf("predicted %d", preds[0])
	}
}

func TestHighDegreeHubDilutesSignal(t *testing.T) {
	// A seed connected through a hub with many unrelated neighbours
	// should transmit less mass than one through a private path (the
	// paper's "common public IP" argument).
	g := graph.New()
	for i := 0; i < 12; i++ {
		g.Upsert(graph.KindIP, string(rune('a'+i)))
	}
	// Private path: 0(seed) - 1 - 2(query).
	g.AddEdge(0, 1, graph.EdgeInReport)
	g.AddEdge(1, 2, graph.EdgeInReport)
	// Hub path: 3(seed) - 4(hub) - 5(query); hub also touches 6..11.
	g.AddEdge(3, 4, graph.EdgeInReport)
	g.AddEdge(4, 5, graph.EdgeInReport)
	for i := 6; i < 12; i++ {
		g.AddEdge(4, graph.NodeID(i), graph.EdgeInReport)
	}
	adj := g.Adjacency()
	f := PropagateCSR(sparse.FromAdj(adj), map[graph.NodeID]int{0: 0, 3: 1}, 2, 2)
	if f.At(2, 0) <= f.At(5, 1) {
		t.Fatalf("hub path %v should carry less mass than private path %v",
			f.At(5, 1), f.At(2, 0))
	}
}

func TestDistribution(t *testing.T) {
	if Distribution([]float64{0, 0}) != nil {
		t.Fatal("zero row should be unattributed")
	}
	d := Distribution([]float64{1, 3})
	if d == nil {
		t.Fatal("nonzero row should get a distribution")
	}
	if math.Abs(mat.Sum(d)-1) > 1e-9 {
		t.Fatalf("distribution sums to %v", mat.Sum(d))
	}
	if d[1] <= d[0] {
		t.Fatalf("softmax ordering broken: %v", d)
	}
}

func TestAttributeEndToEnd(t *testing.T) {
	adj := chain(4)
	preds := AttributeCSR(sparse.FromAdj(adj), map[graph.NodeID]int{0: 1}, []graph.NodeID{1, 2, 3}, 2, 4)
	for i, p := range preds {
		if p != 1 {
			t.Fatalf("query %d predicted %d", i, p)
		}
	}
}

// referencePropagate is the pre-refactor adjacency-list implementation
// of Eq. 1, kept verbatim as the equivalence oracle for the CSR path.
func referencePropagate(adj [][]graph.NodeID, seeds map[graph.NodeID]int, classes, layers int) *mat.Matrix {
	n := len(adj)
	f := mat.NewOf[float64](n, classes)
	for id, c := range seeds {
		if c >= 0 && c < classes {
			f.Set(int(id), c, 1)
		}
	}
	acc := mat.NewOf[float64](n, classes)
	invSqrtDeg := make([]float64, n)
	for u := range adj {
		if d := len(adj[u]); d > 0 {
			invSqrtDeg[u] = 1 / math.Sqrt(float64(d))
		}
	}
	next := mat.NewOf[float64](n, classes)
	for l := 0; l < layers; l++ {
		next.Zero()
		for u := range adj {
			if len(adj[u]) == 0 {
				continue
			}
			dst := next.Row(u)
			wu := invSqrtDeg[u]
			for _, v := range adj[u] {
				src := f.Row(int(v))
				w := wu * invSqrtDeg[v]
				for c := 0; c < classes; c++ {
					dst[c] += w * src[c]
				}
			}
		}
		f, next = next, f
		mat.AddInPlace(acc, f)
	}
	return acc
}

// TestPropagateMatchesReferenceBitIdentical checks the CSR kernel path
// against the pre-refactor loops, bit for bit, serial and parallel.
func TestPropagateMatchesReferenceBitIdentical(t *testing.T) {
	g := graph.New()
	const n = 300
	for i := 0; i < n; i++ {
		g.Upsert(graph.KindEvent, fmt.Sprintf("ev%d", i))
	}
	rng := rand.New(rand.NewSource(11))
	for e := 0; e < 900; e++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		g.AddEdge(u, v, graph.EdgeInReport)
	}
	adj := g.Adjacency()
	seeds := map[graph.NodeID]int{}
	for i := 0; i < 40; i++ {
		seeds[graph.NodeID(rng.Intn(n))] = rng.Intn(5)
	}
	want := referencePropagate(adj, seeds, 5, 4)
	for _, workers := range []int{1, 8} {
		prev := par.SetWorkers(workers)
		got := PropagateCSR(sparse.FromAdj(adj), seeds, 5, 4)
		fromCSR := PropagateCSR(g.CSR(), seeds, 5, 4)
		par.SetWorkers(prev)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: FromAdj propagation differs from reference at %d: %v vs %v",
					workers, i, got.Data[i], want.Data[i])
			}
			if fromCSR.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: PropagateCSR differs from reference at %d: %v vs %v",
					workers, i, fromCSR.Data[i], want.Data[i])
			}
		}
	}
}

// TestPropagateCSRIntoMatchesPropagateCSR pins the pooled propagation
// path: accumulating into a caller-owned (even dirty) dst must equal the
// allocating PropagateCSR bit for bit, and repeated calls over the same
// snapshot must be stable.
func TestPropagateCSRIntoMatchesPropagateCSR(t *testing.T) {
	adj := chain(12)
	seeds := map[graph.NodeID]int{0: 0, 11: 1}
	a := sparse.FromAdj(adj)
	want := PropagateCSR(a, seeds, 2, 4)
	dst := mat.NewOf[float64](a.Rows, 2)
	for rep := 0; rep < 3; rep++ {
		dst.Fill(math.Inf(-1)) // dst is overwritten, not accumulated into
		PropagateCSRInto(dst, a, seeds, 2, 4)
		for i := range want.Data {
			if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("rep %d: Data[%d] = %v, want %v", rep, i, dst.Data[i], want.Data[i])
			}
		}
	}
	// Shape mismatch fails loudly instead of writing out of bounds.
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dst shape mismatch")
		}
	}()
	PropagateCSRInto(mat.NewOf[float64](a.Rows-1, 2), a, seeds, 2, 4)
}

// TestPropagateReorderedBitIdentical forces the cache-aware
// degree-descending reordering onto a small fixture (by lowering
// sparse.ReorderMinRows) and checks the permuted-space iteration against
// the unpermuted one bit for bit, serial and parallel. Two fresh CSRs
// are built because the reordered view is cached per snapshot.
func TestPropagateReorderedBitIdentical(t *testing.T) {
	g := graph.New()
	const n = 400
	for i := 0; i < n; i++ {
		g.Upsert(graph.KindIP, fmt.Sprintf("ip%d", i))
	}
	rng := rand.New(rand.NewSource(7))
	// Hub-heavy wiring: a few vertices collect most edges, as on the TKG.
	for e := 0; e < 1500; e++ {
		hub := graph.NodeID(rng.Intn(20))
		g.AddEdge(hub, graph.NodeID(rng.Intn(n)), graph.EdgeInReport)
	}
	adj := g.Adjacency()
	seeds := map[graph.NodeID]int{}
	for i := 0; i < 30; i++ {
		seeds[graph.NodeID(rng.Intn(n))] = rng.Intn(6)
	}
	queries := make([]graph.NodeID, 0, 50)
	for len(queries) < 50 {
		queries = append(queries, graph.NodeID(rng.Intn(n)))
	}

	orig := sparse.ReorderMinRows
	defer func() { sparse.ReorderMinRows = orig }()

	sparse.ReorderMinRows = n + 1 // reordering off
	plain := sparse.FromAdj(adj)
	if _, p := plain.Reordered(); p != nil {
		t.Fatal("reordering unexpectedly active on the reference CSR")
	}
	want := PropagateCSR(plain, seeds, 6, 4)
	wantPreds := AttributeCSR(plain, seeds, queries, 6, 4)

	sparse.ReorderMinRows = 1 // reordering forced
	reord := sparse.FromAdj(adj)
	if _, p := reord.Reordered(); p == nil {
		t.Fatal("reordering not active on the permuted CSR")
	}
	for _, workers := range []int{1, 8} {
		prev := par.SetWorkers(workers)
		got := PropagateCSR(reord, seeds, 6, 4)
		gotPreds := AttributeCSR(reord, seeds, queries, 6, 4)
		par.SetWorkers(prev)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("workers=%d: reordered propagation differs at %d: %v vs %v",
					workers, i, got.Data[i], want.Data[i])
			}
		}
		for i := range wantPreds {
			if gotPreds[i] != wantPreds[i] {
				t.Fatalf("workers=%d: reordered prediction %d: %d vs %d",
					workers, i, gotPreds[i], wantPreds[i])
			}
		}
	}
}
