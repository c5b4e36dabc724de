package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"trail/internal/sparse"
)

func buildSmall(t *testing.T) *Graph {
	t.Helper()
	g := New()
	// event - ip - domain chain plus an ASN.
	ev, _ := g.Upsert(KindEvent, "ev1")
	ip, _ := g.Upsert(KindIP, "1.2.3.4")
	dom, _ := g.Upsert(KindDomain, "evil.com")
	asn, _ := g.Upsert(KindASN, "AS1")
	g.AddEdge(ev, ip, EdgeInReport)
	g.AddEdge(ip, dom, EdgeARecord)
	g.AddEdge(ip, asn, EdgeInGroup)
	return g
}

func TestUpsertIdempotent(t *testing.T) {
	g := New()
	a, created := g.Upsert(KindIP, "1.1.1.1")
	if !created {
		t.Fatal("first upsert should create")
	}
	b, created := g.Upsert(KindIP, "1.1.1.1")
	if created || a != b {
		t.Fatal("second upsert should return existing node")
	}
	// Same key, different kind: distinct node.
	c, created := g.Upsert(KindDomain, "1.1.1.1")
	if !created || c == a {
		t.Fatal("kind should be part of the identity")
	}
	if g.NumNodes() != 2 {
		t.Fatalf("nodes %d", g.NumNodes())
	}
}

func TestAddEdgeDeduplicatesAndCounts(t *testing.T) {
	g := buildSmall(t)
	before := g.NumEdges()
	ev, _ := g.Lookup(KindEvent, "ev1")
	ip, _ := g.Lookup(KindIP, "1.2.3.4")
	if g.AddEdge(ev, ip, EdgeInReport) {
		t.Fatal("duplicate edge inserted")
	}
	if g.AddEdge(ip, ev, EdgeInReport) {
		t.Fatal("reversed duplicate inserted")
	}
	if g.AddEdge(ev, ev, EdgeInReport) {
		t.Fatal("self-loop inserted")
	}
	if g.NumEdges() != before {
		t.Fatalf("edge count changed: %d -> %d", before, g.NumEdges())
	}
	if g.EdgeTypeCount(EdgeInReport) != 1 {
		t.Fatalf("type count %d", g.EdgeTypeCount(EdgeInReport))
	}
}

func TestNeighborEdgesDirection(t *testing.T) {
	g := buildSmall(t)
	ip, _ := g.Lookup(KindIP, "1.2.3.4")
	fwd, back := 0, 0
	g.NeighborEdges(ip, func(_ NodeID, _ EdgeType, isFwd bool) bool {
		if isFwd {
			fwd++
		} else {
			back++
		}
		return true
	})
	// ip->domain and ip->asn stored forward; event->ip stored backward.
	if fwd != 2 || back != 1 {
		t.Fatalf("fwd=%d back=%d", fwd, back)
	}
}

func TestBFSAndComponents(t *testing.T) {
	g := buildSmall(t)
	g.Upsert(KindDomain, "island.org") // isolated
	adj := g.CSR()
	ev, _ := g.Lookup(KindEvent, "ev1")
	dist := BFSDistances(adj, ev, -1)
	dom, _ := g.Lookup(KindDomain, "evil.com")
	if dist[dom] != 2 {
		t.Fatalf("distance to domain %d", dist[dom])
	}
	iso, _ := g.Lookup(KindDomain, "island.org")
	if dist[iso] != -1 {
		t.Fatal("isolated node reachable")
	}
	_, sizes := ConnectedComponents(adj)
	if len(sizes) != 2 {
		t.Fatalf("components %v", sizes)
	}
	members, size := LargestComponent(adj)
	if size != 4 || len(members) != 4 {
		t.Fatalf("largest %d", size)
	}
}

func TestBFSDepthLimit(t *testing.T) {
	g := buildSmall(t)
	ev, _ := g.Lookup(KindEvent, "ev1")
	var hood []NodeID
	for id, d := range BFSDistances(g.CSR(), ev, 1) {
		if d >= 0 {
			hood = append(hood, NodeID(id))
		}
	}
	if len(hood) != 2 { // ev + ip
		t.Fatalf("1-hop neighborhood %v", hood)
	}
}

func TestEgoNet(t *testing.T) {
	g := buildSmall(t)
	ev, _ := g.Lookup(KindEvent, "ev1")
	net := g.Ego(g.CSR(), ev, 2)
	if len(net.Nodes) != 4 {
		t.Fatalf("ego nodes %d", len(net.Nodes))
	}
	if len(net.Edges) != 3 {
		t.Fatalf("ego edges %d", len(net.Edges))
	}
	if net.Dist[ev] != 0 {
		t.Fatal("ego distance")
	}
}

func TestPseudoDiameterOnPath(t *testing.T) {
	g := New()
	const n = 10
	var prev NodeID
	for i := 0; i < n; i++ {
		id, _ := g.Upsert(KindIP, fmt.Sprintf("10.0.0.%d", i))
		if i > 0 {
			g.AddEdge(prev, id, EdgeARecord)
		}
		prev = id
	}
	if d := PseudoDiameter(g.CSR(), 3, 4); d != n-1 {
		t.Fatalf("path diameter %d, want %d", d, n-1)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := New()
	for i := 0; i < 50; i++ {
		g.Upsert(NodeKind(rng.Intn(5)), fmt.Sprintf("node-%d", i))
	}
	for i := 0; i < 120; i++ {
		u := NodeID(rng.Intn(50))
		v := NodeID(rng.Intn(50))
		g.AddEdge(u, v, EdgeType(rng.Intn(5)))
	}
	g.UpdateNode(7, func(n *Node) { n.Label = 3; n.FirstOrder = true; n.EventCount = 2 })

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := New()
	if _, err := g2.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	n := g2.Node(7)
	if n.Label != 3 || !n.FirstOrder || n.EventCount != 2 {
		t.Fatalf("node metadata lost: %+v", n)
	}
	for id := 0; id < g.NumNodes(); id++ {
		a := g.SortedNeighborKeys(NodeID(id))
		b := g2.SortedNeighborKeys(NodeID(id))
		if len(a) != len(b) {
			t.Fatalf("node %d adjacency mismatch", id)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d neighbor %d: %s vs %s", id, i, a[i], b[i])
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := buildSmall(t)
	path := t.TempDir() + "/g.gob"
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Fatal("load mismatch")
	}
	if _, err := Load(t.TempDir() + "/missing.gob"); err == nil {
		t.Fatal("loading missing file should fail")
	}
}

func TestConcurrentUpsertAndRead(t *testing.T) {
	g := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, _ := g.Upsert(KindIP, fmt.Sprintf("ip-%d", i%50))
				other, _ := g.Upsert(KindDomain, fmt.Sprintf("d%d.com", i%40))
				g.AddEdge(id, other, EdgeARecord)
				g.Degree(id)
				g.Neighbors(other)
			}
		}(w)
	}
	wg.Wait()
	if g.KindCount(KindIP) != 50 || g.KindCount(KindDomain) != 40 {
		t.Fatalf("counts %d/%d", g.KindCount(KindIP), g.KindCount(KindDomain))
	}
}

func TestInducedAdjacency(t *testing.T) {
	g := buildSmall(t)
	ip, _ := g.Lookup(KindIP, "1.2.3.4")
	sub := InducedAdjacency(g.CSR(), func(id NodeID) bool { return id != ip })
	for _, v := range sub.ColIdx {
		if NodeID(v) == ip {
			t.Fatal("excluded node still referenced")
		}
	}
	if sub.End(int(ip)) != sub.RowPtr[ip] {
		t.Fatal("excluded node has adjacency")
	}
}

func TestCountWithinHops(t *testing.T) {
	g := buildSmall(t)
	ev2, _ := g.Upsert(KindEvent, "ev2")
	ip, _ := g.Lookup(KindIP, "1.2.3.4")
	g.AddEdge(ev2, ip, EdgeInReport)
	adj := g.CSR()
	ev1, _ := g.Lookup(KindEvent, "ev1")
	if got := CountWithinHops(adj, []NodeID{ev1, ev2}, 2); got != 2 {
		t.Fatalf("within 2 hops: %d", got)
	}
	if got := CountWithinHops(adj, []NodeID{ev1, ev2}, 1); got != 0 {
		t.Fatalf("within 1 hop: %d", got)
	}
}

func TestComponentSizesSumToNodes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			g.Upsert(KindIP, fmt.Sprintf("n%d", i))
		}
		for e := 0; e < rng.Intn(60); e++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), EdgeARecord)
		}
		_, sizes := ConnectedComponents(g.CSR())
		total := 0
		for _, s := range sizes {
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRMatchesAdjacencyAndCaches(t *testing.T) {
	g := buildSmall(t)
	adj := g.Adjacency()
	csr := g.CSR()
	if csr.Rows != len(adj) || csr.Cols != len(adj) {
		t.Fatalf("CSR shape %dx%d, want %d", csr.Rows, csr.Cols, len(adj))
	}
	for u := range adj {
		row := csr.ColIdx[csr.RowPtr[u]:csr.RowPtr[u+1]]
		if len(row) != len(adj[u]) {
			t.Fatalf("node %d: CSR row has %d entries, adjacency %d", u, len(row), len(adj[u]))
		}
		for i, v := range adj[u] {
			if NodeID(row[i]) != v {
				t.Fatalf("node %d entry %d: CSR %d vs adjacency %d (order must match)", u, i, row[i], v)
			}
		}
	}
	if g.CSR() != csr {
		t.Fatal("CSR not cached between mutations")
	}
	// Mutations must invalidate the snapshot.
	u, _ := g.Lookup(KindIP, "1.1.1.1")
	d, _ := g.Upsert(KindDomain, "csr-invalidate.test")
	g.AddEdge(u, d, EdgeARecord)
	csr2 := g.CSR()
	if csr2 == csr {
		t.Fatal("CSR cache not invalidated by mutation")
	}
	if csr2.Rows != g.NumNodes() || csr2.NNZ() != csr.NNZ()+2 {
		t.Fatalf("stale CSR after mutation: %d rows nnz %d", csr2.Rows, csr2.NNZ())
	}
}

// TestCSRReordered pins the snapshot-level reordering hook: below the
// gate it runs unpermuted, above it the permuted view round-trips every
// vertex through Perm/Inv and is cached alongside the CSR snapshot.
func TestCSRReordered(t *testing.T) {
	g := New()
	const n = 64
	for i := 0; i < n; i++ {
		g.Upsert(KindIP, fmt.Sprintf("10.0.0.%d", i))
	}
	// Star around vertex 0 plus a sprinkling of chain edges, so the
	// degree order is not the insertion order.
	for i := 1; i < n; i++ {
		g.AddEdge(0, NodeID(i), EdgeInReport)
	}
	for i := 5; i+1 < n; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), EdgeInReport)
	}

	orig := sparse.ReorderMinRows
	defer func() { sparse.ReorderMinRows = orig }()

	sparse.ReorderMinRows = n + 1
	if rs, p := g.CSRReordered(); p != nil || rs != g.CSR() {
		t.Fatal("small snapshot should skip reordering")
	}

	sparse.ReorderMinRows = 1
	g2 := New() // fresh graph: the reordered view is cached per snapshot
	for i := 0; i < n; i++ {
		g2.Upsert(KindIP, fmt.Sprintf("10.0.0.%d", i))
	}
	for i := 1; i < n; i++ {
		g2.AddEdge(0, NodeID(i), EdgeInReport)
	}
	for i := 5; i+1 < n; i++ {
		g2.AddEdge(NodeID(i), NodeID(i+1), EdgeInReport)
	}
	rs, p := g2.CSRReordered()
	if p == nil {
		t.Fatal("large snapshot should reorder")
	}
	csr := g2.CSR()
	if rs.NNZ() != csr.NNZ() {
		t.Fatalf("reordered NNZ %d, want %d", rs.NNZ(), csr.NNZ())
	}
	for old := 0; old < n; old++ {
		nw := p.Inv[old]
		if int(p.Perm[nw]) != old {
			t.Fatalf("Perm/Inv mismatch at vertex %d", old)
		}
		if rs.RowPtr[nw+1]-rs.RowPtr[int(nw)] != csr.RowPtr[old+1]-csr.RowPtr[old] {
			t.Fatalf("vertex %d degree changed under permutation", old)
		}
	}
	// Degree-descending: permuted row degrees are non-increasing.
	for r := 1; r < n; r++ {
		if rs.RowPtr[r+1]-rs.RowPtr[r] > rs.RowPtr[r]-rs.RowPtr[r-1] {
			t.Fatalf("row %d out of degree order", r)
		}
	}
	rs2, p2 := g2.CSRReordered()
	if rs2 != rs || p2 != p {
		t.Fatal("reordered view not cached on the snapshot")
	}
}

// TestVersionMonotonic: the mutation counter moves on every state
// change (node created, edge inserted, record updated) and stays put on
// no-op mutations, so snapshot consumers can use it for staleness.
func TestVersionMonotonic(t *testing.T) {
	g := New()
	v0 := g.Version()
	a, _ := g.Upsert(KindEvent, "e1")
	if g.Version() <= v0 {
		t.Fatal("Upsert(create) did not bump version")
	}
	v1 := g.Version()
	if _, created := g.Upsert(KindEvent, "e1"); created || g.Version() != v1 {
		t.Fatal("no-op Upsert bumped version")
	}
	b, _ := g.Upsert(KindIP, "1.2.3.4")
	v2 := g.Version()
	if !g.AddEdge(a, b, EdgeInReport) || g.Version() <= v2 {
		t.Fatal("AddEdge(insert) did not bump version")
	}
	v3 := g.Version()
	if g.AddEdge(a, b, EdgeInReport) || g.Version() != v3 {
		t.Fatal("duplicate AddEdge bumped version")
	}
	g.UpdateNode(b, func(n *Node) { n.Label = 7 })
	if g.Version() <= v3 {
		t.Fatal("UpdateNode did not bump version")
	}
}

// TestTakeDirty: with tracking on, created nodes and edge endpoints
// accumulate into a sorted, deduplicated set that drains on Drain.
func TestTakeDirty(t *testing.T) {
	g := New()
	if got := slices.Clone(g.DrainDirty()); got != nil {
		t.Fatalf("untracked DrainDirty = %v", got)
	}
	g.TrackDirty(true)
	a, _ := g.Upsert(KindEvent, "e1")
	b, _ := g.Upsert(KindIP, "1.2.3.4")
	c, _ := g.Upsert(KindIP, "5.6.7.8")
	g.AddEdge(a, b, EdgeInReport)
	g.AddEdge(a, b, EdgeInReport) // duplicate: no new dirt
	d := slices.Clone(g.DrainDirty())
	want := []NodeID{a, b, c}
	if len(d) != len(want) {
		t.Fatalf("dirty %v, want %v", d, want)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dirty %v, want %v", d, want)
		}
	}
	if got := slices.Clone(g.DrainDirty()); got != nil {
		t.Fatalf("second DrainDirty = %v, want nil", got)
	}
	// Edge between two existing nodes dirties both endpoints.
	g.AddEdge(b, c, EdgeARecord)
	d = slices.Clone(g.DrainDirty())
	if len(d) != 2 || d[0] != b || d[1] != c {
		t.Fatalf("edge dirt %v, want [%d %d]", d, b, c)
	}
	g.TrackDirty(false)
	g.Upsert(KindDomain, "x.test")
	if got := slices.Clone(g.DrainDirty()); got != nil {
		t.Fatalf("disabled DrainDirty = %v", got)
	}
}

func TestForEachEdgeForwardWalk(t *testing.T) {
	g := buildSmall(t)
	type edge struct {
		u, v NodeID
		et   EdgeType
	}
	var got []edge
	g.ForEachEdge(func(u, v NodeID, et EdgeType) bool {
		got = append(got, edge{u, v, et})
		return true
	})
	if len(got) != g.NumEdges() {
		t.Fatalf("walked %d edges, graph has %d", len(got), g.NumEdges())
	}
	ev, _ := g.Lookup(KindEvent, "ev1")
	ip, _ := g.Lookup(KindIP, "1.2.3.4")
	dom, _ := g.Lookup(KindDomain, "evil.com")
	asn, _ := g.Lookup(KindASN, "AS1")
	want := []edge{ // source-ID-major, insertion order within source
		{ev, ip, EdgeInReport},
		{ip, dom, EdgeARecord},
		{ip, asn, EdgeInGroup},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %v want %v (forward direction, deterministic order)", i, got[i], want[i])
		}
	}
	// Early stop.
	n := 0
	g.ForEachEdge(func(_, _ NodeID, _ EdgeType) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop visited %d edges", n)
	}
}
