package graph

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trail/internal/ckpt"
)

func buildCkptTestGraph(t testing.TB) *Graph {
	t.Helper()
	g := New()
	ev, _ := g.Upsert(KindEvent, "ev-1")
	ip, _ := g.Upsert(KindIP, "10.0.0.1")
	dom, _ := g.Upsert(KindDomain, "evil.example")
	g.AddEdge(ev, ip, EdgeInReport)
	g.AddEdge(ip, dom, EdgeResolvesTo)
	return g
}

// TestGraphVersionSkew: a snapshot saved under a future version is
// rejected with a typed *ckpt.VersionError, not a panic and not a
// misdecoded graph.
func TestGraphVersionSkew(t *testing.T) {
	g := buildCkptTestGraph(t)
	var err error
	path := filepath.Join(t.TempDir(), "g.ck")
	if err = g.Save(path); err != nil {
		t.Fatal(err)
	}
	payload, err := ckpt.Load(path, CheckpointKind, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Save(path, CheckpointKind, snapshotVersion+1, payload); err != nil {
		t.Fatal(err)
	}
	var verr *ckpt.VersionError
	if _, err := Load(path); !errors.As(err, &verr) {
		t.Fatalf("want *ckpt.VersionError, got %v", err)
	}
}

// TestGraphFileCorruption: corrupted and truncated graph files surface
// typed errors on load.
func TestGraphFileCorruption(t *testing.T) {
	g := buildCkptTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.ck")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-3] ^= 0x80
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("bit flip: want ErrCorrupt, got %v", err)
	}

	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ckpt.ErrTruncated) {
		t.Fatalf("truncation: want ErrTruncated, got %v", err)
	}

	if err := os.WriteFile(path, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ckpt.ErrNotCheckpoint) {
		t.Fatalf("garbage: want ErrNotCheckpoint, got %v", err)
	}
}

// encodeSnapshot gob-encodes a hand-built snapshot, bypassing WriteTo, so
// tests can feed ReadFrom edge lists AddEdge would never have produced.
func encodeSnapshot(t testing.TB, nodes int, edges [][3]int) []byte {
	t.Helper()
	snap := snapshot{Version: snapshotVersion}
	for i := 0; i < nodes; i++ {
		snap.Nodes = append(snap.Nodes, Node{ID: NodeID(i), Kind: KindIP, Key: fmt.Sprintf("n%d", i), Label: -1})
	}
	for _, e := range edges {
		snap.EdgeU = append(snap.EdgeU, NodeID(e[0]))
		snap.EdgeV = append(snap.EdgeV, NodeID(e[1]))
		snap.EdgeT = append(snap.EdgeT, EdgeType(e[2]))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadFromRejectsInvalidEdges: a checkpoint edge AddEdge would have
// refused — a self-loop, a repeated (pair, type) in either orientation,
// a negative endpoint — is a descriptive error, not a loaded graph that
// breaks the store's invariants.
func TestReadFromRejectsInvalidEdges(t *testing.T) {
	cases := []struct {
		name  string
		edges [][3]int
		want  string
	}{
		{"self-loop", [][3]int{{0, 1, 0}, {2, 2, 1}}, "edge 1 is a self-loop on node 2"},
		{"duplicate", [][3]int{{0, 1, 0}, {1, 2, 0}, {0, 1, 0}}, "edge 2 (0-1, InReport) repeats an earlier edge"},
		{"reversed duplicate", [][3]int{{0, 1, 3}, {1, 0, 3}}, "edge 1 (1-0, ResolvesTo) repeats an earlier edge"},
		{"negative endpoint", [][3]int{{0, -1, 0}}, "edge 0 out of range"},
	}
	for _, c := range cases {
		g := New()
		_, err := g.ReadFrom(bytes.NewReader(encodeSnapshot(t, 3, c.edges)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
	// Parallel edges of different types between one pair stay legal.
	g := New()
	if _, err := g.ReadFrom(bytes.NewReader(encodeSnapshot(t, 3, [][3]int{{0, 1, 0}, {1, 0, 1}}))); err != nil {
		t.Fatalf("parallel edges of different types: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("loaded %d edges, want 2", g.NumEdges())
	}
}

// TestReadParentFixture loads testdata/parent_v1.ck, a checkpoint
// written by the store that kept an insertion-order edge log (the same
// snapshot version 1): it must load, its CSR must equal the from-scratch
// oracle built by replaying the file's edges in file order, and
// re-saving and reloading must reproduce the rows exactly.
func TestReadParentFixture(t *testing.T) {
	const path = "testdata/parent_v1.ck"
	g, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ckpt.Load(path, CheckpointKind, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	ref := newRefGraph()
	for _, n := range snap.Nodes {
		ref.upsert(n.Kind, n.Key)
	}
	pairs := map[[2]NodeID]bool{}
	parallel := false
	for i := range snap.EdgeU {
		u, v := snap.EdgeU[i], snap.EdgeV[i]
		if !ref.addEdge(u, v, snap.EdgeT[i]) {
			t.Fatalf("fixture edge %d rejected by the reference", i)
		}
		key := [2]NodeID{min(u, v), max(u, v)}
		parallel = parallel || pairs[key]
		pairs[key] = true
	}
	if !parallel {
		t.Fatal("fixture has no parallel edges of different types")
	}
	checkRows(t, g, ref, "fixture")
	pc, rc := g.CSR(), ref.csr()
	if !intsEq(pc.RowPtr, rc.RowPtr) || !i32Eq(pc.ColIdx, rc.ColIdx) {
		t.Fatal("fixture CSR differs from the oracle build")
	}
	if n := g.Node(5); !n.Degraded || n.Label != 4 || n.Month != 24005 {
		t.Fatalf("fixture node metadata lost: %+v", n)
	}

	resaved := filepath.Join(t.TempDir(), "g.ck")
	if err := g.Save(resaved); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(resaved)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, g2, ref, "fixture re-saved")
	if c2 := g2.CSR(); !intsEq(c2.RowPtr, rc.RowPtr) || !i32Eq(c2.ColIdx, rc.ColIdx) {
		t.Fatal("re-saved fixture CSR differs from the oracle build")
	}
}

// FuzzGraphReadFrom: arbitrary bytes either fail to decode with an error
// or load a graph whose rows are symmetric (every entry has its mirror
// entry in the neighbour's row), whose CSR holds both directions of
// every edge, and which writes back out. Never a panic.
func FuzzGraphReadFrom(f *testing.F) {
	g := buildCkptTestGraph(f)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	for cut := 1; cut < len(full); cut += max(1, len(full)/16) {
		f.Add(full[:cut])
	}
	f.Add(encodeSnapshot(f, 3, [][3]int{{0, 1, 0}, {1, 0, 0}}))
	f.Add(encodeSnapshot(f, 3, [][3]int{{2, 2, 4}}))
	f.Add(encodeSnapshot(f, 2, [][3]int{{0, 1, 2}, {1, 0, 4}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		g := New()
		if _, err := g.ReadFrom(bytes.NewReader(data)); err != nil {
			return
		}
		type half struct {
			u, v NodeID
			t    EdgeType
			fwd  bool
		}
		entries := map[half]int{}
		for u := 0; u < g.NumNodes(); u++ {
			g.NeighborEdges(NodeID(u), func(v NodeID, et EdgeType, fwd bool) bool {
				entries[half{NodeID(u), v, et, fwd}]++
				return true
			})
		}
		for h, c := range entries {
			if entries[half{h.v, h.u, h.t, !h.fwd}] != c {
				t.Fatalf("row entry %+v has no mirror entry", h)
			}
		}
		if nnz := g.CSR().NNZ(); nnz != 2*g.NumEdges() {
			t.Fatalf("CSR holds %d entries for %d edges", nnz, g.NumEdges())
		}
		if _, err := g.WriteTo(io.Discard); err != nil {
			t.Fatalf("loaded graph does not write back: %v", err)
		}
	})
}
