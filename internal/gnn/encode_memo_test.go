package gnn

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trail/internal/core"
	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/mat/mattest"
	"trail/internal/osint"
)

// TestAutoencoderEncodeRowIndependent is the exactness argument behind
// EncodeGraph's memo: a row's code does not depend on which other rows
// share its batch. One row encoded alone (the untiled serial MatMul
// path) must be bit-identical to the same row inside a full batch and
// inside a permuted batch (the tiled, parallel path), at both
// precisions.
func TestAutoencoderEncodeRowIndependent(t *testing.T) {
	encodeRowIndependent[float64](t)
	encodeRowIndependent[float32](t)
}

func encodeRowIndependent[T mat.Float](t *testing.T) {
	const rows, dim = 97, 300 // 300x128 first-layer weights: tiled dispatch
	ae := NewAutoencoderOf[T](AEConfig{Hidden: 128, Encoding: 64, Seed: 5})
	ae.InitRandom(dim)
	rng := rand.New(rand.NewSource(7))
	X := mat.NewOf[T](rows, dim)
	for i := range X.Data {
		X.Data[i] = T(rng.NormFloat64())
	}
	perm := rng.Perm(rows)
	full, permuted := ae.Encode(X), ae.Encode(X.SelectRows(perm))
	for pi, i := range perm {
		alone := ae.Encode(X.SelectRows([]int{i}))
		name := fmt.Sprintf("%s row %d", precisionName[T](), i)
		mattest.BitEqualVec(t, name+" alone vs full batch", alone.Row(0), full.Row(i))
		mattest.BitEqualVec(t, name+" permuted vs full batch", permuted.Row(pi), full.Row(i))
	}
}

// TestEncodeGraphChunksMatchWholeBatch pins EncodeGraph's chunked encode
// against the whole-kind batch it replaced: with more than two chunks of
// one kind, every code is bit-identical to one Encode call over all of
// that kind's scaled rows.
func TestEncodeGraphChunksMatchWholeBatch(t *testing.T) {
	const rows, dim = 2*encodeChunk + 37, 24
	rng := rand.New(rand.NewSource(13))
	g := graph.New()
	feats := map[graph.NodeID][]float64{}
	var all [][]float64
	var ids []graph.NodeID
	for i := 0; i < rows; i++ {
		id, _ := g.Upsert(graph.KindIP, fmt.Sprintf("10.0.%d.%d", i/256, i%256))
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		feats[id] = v
		all = append(all, v)
		ids = append(ids, id)
	}
	set := RandomEncodersOf[float64](g, feats, AEConfig{Hidden: 32, Encoding: 8, Seed: 4})
	want := set.AEs[graph.KindIP].Encode(set.Scalers[graph.KindIP].Transform(mat.FromRows(all)))
	got := set.EncodeGraph(g, feats)
	for i, id := range ids {
		mattest.BitEqualVec(t, fmt.Sprintf("row %d", i), got.Row(int(id)), want.Row(i))
	}
}

func precisionName[T mat.Float]() string {
	if _, ok := any(T(0)).(float32); ok {
		return "f32"
	}
	return "f64"
}

// memoWorld builds a base TKG over the first months of a small world
// and returns it with the later pulses, which the memo tests stream in.
func memoWorld(t *testing.T) (*core.TKG, []osint.Pulse) {
	t.Helper()
	cfg := osint.TestConfig()
	cfg.Months = 5
	cfg.EventsPerMonth = 6
	w := osint.NewWorld(cfg)
	base := core.NewTKG(w, w.Resolver(), core.DefaultBuildConfig())
	if _, err := base.Build(w.PulsesInMonths(0, 3)); err != nil {
		t.Fatal(err)
	}
	return base, w.PulsesInMonths(3, 5)
}

// otherGraph is an unrelated TKG (another world) that shares no feature
// vector with memoWorld's, so encoding it replaces the whole memo.
func otherGraph(t *testing.T) *core.TKG {
	t.Helper()
	cfg := osint.TestConfig()
	cfg.Months = 2
	cfg.EventsPerMonth = 5
	cfg.Seed += 101
	w := osint.NewWorld(cfg)
	tkg := core.NewTKG(w, w.Resolver(), core.DefaultBuildConfig())
	if _, err := tkg.Build(w.Pulses()); err != nil {
		t.Fatal(err)
	}
	return tkg
}

// freshCopy round-trips a set through its gob encoding: the same
// encoders with an empty memo, i.e. a freshly loaded set.
func freshCopy[T mat.Float](t *testing.T, s *EncoderSetOf[T]) *EncoderSetOf[T] {
	t.Helper()
	b, err := s.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	out := &EncoderSetOf[T]{}
	if err := out.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	if out.memo.Load() != nil {
		t.Fatal("decoded set carries a memo")
	}
	return out
}

// TestEncodeGraphMemoMatchesFresh is the memo oracle: over a randomised
// sequence of graphs — the base TKG, clones of it, pulses applied to
// them, replaced (repaired) vectors, vectors replaced by equal copies,
// and an unrelated graph in between — a long-lived set's EncodeGraph is
// bit-identical at every step to a freshly loaded set's, at both
// precisions. It also checks the memo is used at all: the steps on the
// evolving graph must reuse memoised rows.
func TestEncodeGraphMemoMatchesFresh(t *testing.T) {
	base, later := memoWorld(t)
	other := otherGraph(t)
	encodeMemoSequence[float64](t, base, later, other)
	encodeMemoSequence[float32](t, base, later, other)
}

func encodeMemoSequence[T mat.Float](t *testing.T, base *core.TKG, later []osint.Pulse, other *core.TKG) {
	ctx := context.Background()
	cfg := AEConfig{Hidden: 32, Encoding: 8, Seed: 3}
	set := RandomEncodersOf[T](base.G, base.Features, cfg)
	rng := rand.New(rand.NewSource(11))
	live, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	reused := 0
	for step := 0; step < 24; step++ {
		cur, action := live, ""
		switch r := rng.Intn(6); {
		case r == 0 && next < len(later):
			action = "apply pulses"
			for n := 1 + rng.Intn(3); n > 0 && next < len(later); n-- {
				live.ApplyPulse(ctx, later[next]) // skips and duplicates are fine
				next++
			}
		case r == 1:
			action = "clone"
			if live, err = live.Clone(); err != nil {
				t.Fatal(err)
			}
			cur = live
		case r == 2:
			action = "repair"
			ids := featureIDs(live)
			id := ids[rng.Intn(len(ids))]
			v := append([]float64(nil), live.Features[id]...)
			v[rng.Intn(len(v))] += 1 + rng.Float64()
			live.Features[id] = v
		case r == 3:
			action = "equal copy"
			ids := featureIDs(live)
			id := ids[rng.Intn(len(ids))]
			live.Features[id] = append([]float64(nil), live.Features[id]...)
		case r == 4:
			action, cur = "other graph", other
		default:
			action, cur = "base", base
		}
		prev := set.memo.Load()
		got := set.EncodeGraph(cur.G, cur.Features)
		want := freshCopy(t, set).EncodeGraph(cur.G, cur.Features)
		mattest.BitEqual(t, fmt.Sprintf("%s step %d (%s)", precisionName[T](), step, action), got, want)
		if prev != nil && action != "other graph" && cur == live {
			reused += sharedKeys(prev.keys, set.memo.Load().keys)
		}
	}
	if reused == 0 {
		t.Fatalf("%s: no step reused a memoised row; the oracle is vacuous", precisionName[T]())
	}
}

func featureIDs(tkg *core.TKG) []graph.NodeID {
	var ids []graph.NodeID
	tkg.G.ForEachNode(func(n graph.Node) {
		if _, ok := tkg.Features[n.ID]; ok {
			ids = append(ids, n.ID)
		}
	})
	return ids
}

// sharedKeys counts the non-zero row keys two memo generations share.
func sharedKeys(a, b []rowKey) int {
	n := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].vec != nil && a[i] == b[i] {
			n++
		}
	}
	return n
}

// TestEncodeGraphMemoConcurrent: concurrent EncodeGraph calls on one set,
// alternating between two graphs that share most vectors, each return
// exactly what a freshly loaded set computes for their graph. Run under
// -race it also checks the memo swap publishes its generation safely.
func TestEncodeGraphMemoConcurrent(t *testing.T) {
	base, later := memoWorld(t)
	grown, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range later[:len(later)/2] {
		grown.ApplyPulse(context.Background(), p)
	}
	set := RandomEncodersOf[float64](base.G, base.Features, AEConfig{Hidden: 32, Encoding: 8, Seed: 3})
	graphs := []*core.TKG{base, grown}
	want := make([]*mat.Matrix, len(graphs))
	for i, g := range graphs {
		want[i] = freshCopy(t, set).EncodeGraph(g.G, g.Features)
	}
	const workers, rounds = 4, 6
	got := make([][]*mat.Matrix, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				g := graphs[(w+r)%len(graphs)]
				got[w] = append(got[w], set.EncodeGraph(g.G, g.Features))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for r, m := range got[w] {
			mattest.BitEqual(t, fmt.Sprintf("worker %d round %d", w, r), m, want[(w+r)%len(graphs)])
		}
	}
}
