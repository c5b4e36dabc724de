package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"trail/internal/mat"
	"trail/internal/sparse"
)

// refGraph is the from-scratch oracle the fuzz harness compares the
// graph against: plain per-node entry lists maintained by the test
// alone, with AddEdge's contract (no self-loops, at most one edge per
// (unordered pair, type)), packed into a CSR from scratch on demand.
type refGraph struct {
	index map[nodeRef]NodeID
	rows  [][]refEntry
}

type refEntry struct {
	to  NodeID
	t   EdgeType
	fwd bool
}

func newRefGraph() *refGraph { return &refGraph{index: make(map[nodeRef]NodeID)} }

func (r *refGraph) upsert(kind NodeKind, key string) NodeID {
	ref := nodeRef{kind, key}
	if id, ok := r.index[ref]; ok {
		return id
	}
	id := NodeID(len(r.rows))
	r.index[ref] = id
	r.rows = append(r.rows, nil)
	return id
}

func (r *refGraph) addEdge(u, v NodeID, t EdgeType) bool {
	if u == v {
		return false
	}
	for _, e := range r.rows[u] {
		if e.to == v && e.t == t {
			return false
		}
	}
	r.rows[u] = append(r.rows[u], refEntry{v, t, true})
	r.rows[v] = append(r.rows[v], refEntry{u, t, false})
	return true
}

// csr packs the reference rows into a fresh CSR, the from-scratch build
// every spliced emission must equal bit for bit.
func (r *refGraph) csr() *sparse.Matrix {
	n := len(r.rows)
	rowPtr := make([]int, n+1)
	for i, row := range r.rows {
		rowPtr[i+1] = rowPtr[i] + len(row)
	}
	colIdx := make([]int32, 0, rowPtr[n])
	for _, row := range r.rows {
		for _, e := range row {
			colIdx = append(colIdx, int32(e.to))
		}
	}
	return sparse.NewOf[float64](n, n, rowPtr, colIdx, nil)
}

// checkRows asserts g's rows hold exactly the reference entries — the
// neighbour, type and direction of every entry, in order.
func checkRows(t *testing.T, g *Graph, ref *refGraph, tag string) {
	t.Helper()
	if g.NumNodes() != len(ref.rows) {
		t.Fatalf("%s: %d nodes, reference %d", tag, g.NumNodes(), len(ref.rows))
	}
	for id, want := range ref.rows {
		var got []refEntry
		g.NeighborEdges(NodeID(id), func(to NodeID, et EdgeType, fwd bool) bool {
			got = append(got, refEntry{to, et, fwd})
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s: row %d = %v, reference %v", tag, id, got, want)
		}
	}
}

// mutatePair applies one random mutation batch identically to the graph
// and the reference. Both see the same (kind, key) upserts and AddEdge
// calls in the same order, so node IDs and adjacency entry order — and
// therefore every derived matrix — must match exactly.
func mutatePair(rng *rand.Rand, g *Graph, ref *refGraph, batch int) {
	for op := 0; op < batch; op++ {
		if g.NumNodes() < 4 || rng.Intn(3) == 0 {
			kind := NodeKind(rng.Intn(int(numKinds)))
			key := fmt.Sprintf("n-%d", rng.Intn(200))
			id, _ := g.Upsert(kind, key)
			if id != ref.upsert(kind, key) {
				panic("fuzz reference diverged on Upsert")
			}
		} else {
			n := g.NumNodes()
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			t := EdgeType(rng.Intn(int(numEdgeTypes)))
			if g.AddEdge(u, v, t) != ref.addEdge(u, v, t) {
				panic("fuzz reference diverged on AddEdge result")
			}
		}
	}
}

func f64bitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func i32Eq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPatchedEqualsRebuilt asserts the graph's spliced CSR snapshot —
// structure, values, normalisation caches, reordered view — is
// bit-identical to the reference's from-scratch build.
func checkPatchedEqualsRebuilt(t *testing.T, g *Graph, ref *refGraph, tag string) {
	t.Helper()
	pc, rc := g.CSR(), ref.csr()
	if pc.Rows != rc.Rows || pc.NNZ() != rc.NNZ() {
		t.Fatalf("%s: shape %dx%d/%d vs %dx%d/%d", tag, pc.Rows, pc.Cols, pc.NNZ(), rc.Rows, rc.Cols, rc.NNZ())
	}
	if pc.Slacked() {
		t.Fatalf("%s: CSR() emitted a slacked matrix", tag)
	}
	if !intsEq(pc.RowPtr, rc.RowPtr) || !i32Eq(pc.ColIdx, rc.ColIdx) || !f64bitsEq(pc.Val, rc.Val) {
		t.Fatalf("%s: adjacency CSR differs", tag)
	}
	ps, rs := pc.SymNormalized(), rc.SymNormalized()
	if !f64bitsEq(ps.Val, rs.Val) {
		t.Fatalf("%s: sym-normalised values differ", tag)
	}
	pm, rm := pc.MeanNormalized(), rc.MeanNormalized()
	if !f64bitsEq(pm.RowScale, rm.RowScale) {
		t.Fatalf("%s: mean scales differ", tag)
	}
	// The permutation itself is a locality cache, not part of the
	// snapshot identity: the sticky scheme keeps the previous order under
	// bounded degree drift, so it may legitimately differ from a fresh
	// degree sort. What is pinned instead: the emitted
	// permuted view must be exactly the reference gather of the (already
	// bit-identical) base under its own permutation, its installed
	// normalisation caches must match lazy recomputation, and permuted
	// kernels must scatter back bit-identical answers.
	if prp := mustPerm(pc); prp != nil {
		seen := make([]bool, pc.Rows)
		for _, id := range prp.Perm {
			if seen[id] {
				t.Fatalf("%s: emitted perm repeats row %d", tag, id)
			}
			seen[id] = true
		}
		pv, _ := pc.Reordered()
		exp := rc.Permute(prp)
		if !intsEq(pv.RowPtr, exp.RowPtr) || !i32Eq(pv.ColIdx, exp.ColIdx) || !f64bitsEq(pv.Val, exp.Val) {
			t.Fatalf("%s: permuted view differs from reference gather", tag)
		}
		if !f64bitsEq(pv.SymNormalized().Val, exp.SymNormalized().Val) {
			t.Fatalf("%s: permuted sym values differ", tag)
		}
		if !f64bitsEq(pv.MeanNormalized().RowScale, exp.MeanNormalized().RowScale) {
			t.Fatalf("%s: permuted mean scales differ", tag)
		}
		checkPermutedKernel(t, pc, rc, tag)
	}
}

// checkPermutedKernel pins the property the sticky permutation relies
// on: a row-local SpMM run in permuted space and scattered back is
// bit-identical to the unpermuted run, for WHATEVER permutation the
// patched snapshot carries.
func checkPermutedKernel(t *testing.T, pc, rc *sparse.Matrix, tag string) {
	t.Helper()
	n := pc.Rows
	const cols = 3
	x := mat.NewOf[float64](n, cols)
	for i := 0; i < n; i++ {
		for c := 0; c < cols; c++ {
			x.Set(i, c, float64(1+(i*7+c*3)%11)/3)
		}
	}
	plain := mat.NewOf[float64](n, cols)
	rc.SymNormalized().SpMMInto(plain, x)

	pv, prp := pc.Reordered()
	xp := mat.NewOf[float64](n, cols)
	for r := 0; r < n; r++ {
		copy(xp.Row(r), x.Row(int(prp.Perm[r])))
	}
	yp := mat.NewOf[float64](n, cols)
	pv.SymNormalized().SpMMInto(yp, xp)
	got := mat.NewOf[float64](n, cols)
	sparse.ScatterRowsInto(prp, got, yp)
	if !f64bitsEq(got.Data, plain.Data) {
		t.Fatalf("%s: permuted SpMM scattered back differs from plain run", tag)
	}
}

func mustPerm(m *sparse.Matrix) *sparse.Permutation {
	_, p := m.Reordered()
	return p
}

// checkLiveMatches asserts the transient slacked view exposes exactly
// the reference's packed rows (adjacency and sym values) without
// emitting.
func checkLiveMatches(t *testing.T, g *Graph, ref *refGraph, tag string) {
	t.Helper()
	lv := g.LiveCSR()
	rc := ref.csr()
	if !lv.Slacked() {
		t.Fatalf("%s: LiveCSR returned a packed matrix", tag)
	}
	if lv.Rows != rc.Rows || lv.NNZ() != rc.NNZ() {
		t.Fatalf("%s: live shape %d/%d vs %d/%d", tag, lv.Rows, lv.NNZ(), rc.Rows, rc.NNZ())
	}
	ls, rs := lv.SymNormalized(), rc.SymNormalized()
	for i := 0; i < lv.Rows; i++ {
		lrow := lv.ColIdx[lv.RowPtr[i]:lv.End(i)]
		rrow := rc.ColIdx[rc.RowPtr[i]:rc.End(i)]
		if !i32Eq(lrow, rrow) {
			t.Fatalf("%s: live row %d structure differs", tag, i)
		}
		if !f64bitsEq(ls.Val[ls.RowPtr[i]:ls.End(i)], rs.Val[rs.RowPtr[i]:rs.End(i)]) {
			t.Fatalf("%s: live sym row %d differs", tag, i)
		}
		for _, v := range lv.Val[lv.RowPtr[i]:lv.End(i)] {
			if v != 1 {
				t.Fatalf("%s: live adjacency value != 1 in row %d", tag, i)
			}
		}
	}
}

// TestCSRPatchFuzz replays randomized mutation sequences into a graph
// and the test-side reference and pins bit-identity of every emitted
// artefact after every batch against the reference's from-scratch pack —
// the incremental-CSR correctness contract. It also exercises
// persistence round-trips (which must rebuild the rows exactly), live
// view release and re-materialisation, and forced slot compaction.
func TestCSRPatchFuzz(t *testing.T) {
	defer func(n, c int) { sparse.ReorderMinRows = n; csrCompactMinSlots = c }(sparse.ReorderMinRows, csrCompactMinSlots)
	sparse.ReorderMinRows = 8 // exercise perm repair (and its full-sort fallback) on small graphs
	csrCompactMinSlots = 1    // force compaction whenever waste accumulates

	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ref := New(), newRefGraph()
		if seed%2 == 0 {
			g.EnableCSRPatch(true) // eager live mirror; odd seeds materialise it lazily
		}
		for batch := 0; batch < 25; batch++ {
			mutatePair(rng, g, ref, 1+rng.Intn(12))
			tag := fmt.Sprintf("seed %d batch %d", seed, batch)
			checkRows(t, g, ref, tag)
			checkLiveMatches(t, g, ref, tag)
			checkPatchedEqualsRebuilt(t, g, ref, tag)

			if batch%7 == 3 {
				g.EnableCSRPatch(false) // the next LiveCSR re-materialises
			}
			if batch%10 == 9 {
				var buf bytes.Buffer
				if _, err := g.WriteTo(&buf); err != nil {
					t.Fatalf("%s: WriteTo: %v", tag, err)
				}
				if _, err := g.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("%s: ReadFrom: %v", tag, err)
				}
				checkRows(t, g, ref, tag+" post-roundtrip")
				checkPatchedEqualsRebuilt(t, g, ref, tag+" post-roundtrip")
			}
		}
		st := g.CSRPatchStats()
		if st.Applied == 0 {
			t.Fatalf("seed %d: no patched emissions recorded (applied=%d fallback=%d)", seed, st.Applied, st.Fallback)
		}
	}
}

// TestReplayOrderRebuildsRows pins the derived persistence order on
// random multigraphs with hubs and parallel edges of different types:
// replaying WriteTo's edge order rebuilds every row entry-for-entry, and
// re-saving the loaded graph writes the same bytes.
func TestReplayOrderRebuildsRows(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ref := New(), newRefGraph()
		n := 2 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.Upsert(KindIP, fmt.Sprintf("n-%d", i))
			ref.upsert(KindIP, fmt.Sprintf("n-%d", i))
		}
		hubs := 1 + rng.Intn(min(3, n))
		for e := rng.Intn(6 * n); e > 0; e-- {
			u := NodeID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				u = NodeID(rng.Intn(hubs))
			}
			v := NodeID(rng.Intn(n))
			et := EdgeType(rng.Intn(int(numEdgeTypes)))
			if g.AddEdge(u, v, et) != ref.addEdge(u, v, et) {
				t.Fatalf("seed %d: reference diverged", seed)
			}
		}
		var first, second bytes.Buffer
		if _, err := g.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		loaded := New()
		if _, err := loaded.ReadFrom(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkRows(t, loaded, ref, fmt.Sprintf("seed %d", seed))
		if _, err := loaded.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("seed %d: re-saved snapshot differs", seed)
		}
	}
}

// TestCSRPatchConcurrentReaders drives mutations and patched emissions
// while reader goroutines hammer previously-emitted snapshots; run under
// -race it proves emitted snapshots share nothing mutable with the
// builder.
func TestCSRPatchConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, ref := New(), newRefGraph()
	g.EnableCSRPatch(true)
	mutatePair(rng, g, ref, 200)

	snaps := make(chan *sparse.Matrix, 64)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range snaps {
				x := mat.NewOf[float64](m.Rows, 2)
				for i := range x.Data {
					x.Data[i] = 1
				}
				dst := mat.NewOf[float64](m.Rows, 2)
				m.SymNormalized().SpMMInto(dst, x)
				m.MeanNormalized().SpMMInto(dst, x)
			}
		}()
	}
	for batch := 0; batch < 50; batch++ {
		mutatePair(rng, g, ref, 5)
		m := g.CSR()
		for r := 0; r < 4; r++ {
			snaps <- m
		}
	}
	close(snaps)
	wg.Wait()
	checkPatchedEqualsRebuilt(t, g, ref, "final")
}

// TestAdoptCSR pins the clone warm-up path: a serialisation clone adopts
// the source graph's patched snapshot, and shape mismatches are
// rejected.
func TestAdoptCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New()
	mutatePair(rng, g, newRefGraph(), 120)

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clone := New()
	if _, err := clone.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	m := g.CSR()
	if err := clone.AdoptCSR(m); err != nil {
		t.Fatalf("AdoptCSR on matching clone: %v", err)
	}
	if clone.CSR() != m {
		t.Fatal("adopted snapshot not returned by CSR()")
	}
	clone.Upsert(KindIP, "adopt-mismatch")
	if err := clone.AdoptCSR(m); err == nil {
		t.Fatal("AdoptCSR accepted a stale snapshot")
	}
	if err := clone.AdoptCSR(g.LiveCSR()); err == nil {
		t.Fatal("AdoptCSR accepted a slacked matrix")
	}
}

// TestDrainDirtyNoAlloc pins the satellite fix: draining the dirty set
// into the recycled buffer allocates nothing in steady state.
func TestDrainDirtyNoAlloc(t *testing.T) {
	g := New()
	for i := 0; i < 64; i++ {
		g.Upsert(KindIP, fmt.Sprintf("ip-%d", i))
	}
	g.TrackDirty(true)
	fill := func() {
		g.mu.Lock()
		for i := 0; i < 32; i++ {
			g.dirty[NodeID(i*2)] = struct{}{}
		}
		g.mu.Unlock()
	}
	fill()
	first := g.DrainDirty()
	if len(first) != 32 {
		t.Fatalf("drained %d ids, want 32", len(first))
	}
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		d := g.DrainDirty()
		if len(d) != 32 {
			t.Fatalf("drained %d ids, want 32", len(d))
		}
	})
	if allocs != 0 {
		t.Fatalf("DrainDirty allocates %.1f objects per drain, want 0", allocs)
	}
	fill()
	second := g.DrainDirty()
	if &first[0] != &second[0] {
		t.Fatal("DrainDirty did not recycle its buffer")
	}
}
