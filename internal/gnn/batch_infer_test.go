package gnn

import (
	"testing"

	"trail/internal/graph"
	"trail/internal/mat"
)

// trainToyModel fits a small SAGE model on the toy attribution graph and
// returns it with the input and a visible-label map over the training
// events — the serving configuration: every labelled event is context.
func trainToyModel(t *testing.T) (*Model, Input, map[graph.NodeID]int, []graph.NodeID) {
	t.Helper()
	in, byClass := buildToyAttributionGraph(t, 3, 8, 5)
	var train, test []graph.NodeID
	for _, evs := range byClass {
		train = append(train, evs[:6]...)
		test = append(test, evs[6:]...)
	}
	cfg := Config{Layers: 2, Hidden: 8, Encoding: 16, LR: 1e-2, Epochs: 8, Seed: 1}
	m, err := TrainCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	visible := make(map[graph.NodeID]int, len(train))
	for _, ev := range train {
		visible[ev] = in.Labels[ev]
	}
	return m, in, visible, test
}

// TestPredictProbaIntoMatchesPredictProba pins the batching contract the
// serving layer depends on: one batched forward pass answers every query
// bit-identically to separate single-query passes.
func TestPredictProbaIntoMatchesPredictProba(t *testing.T) {
	m, in, visible, queries := trainToyModel(t)

	ws := mat.NewWorkspaceOf[float64]()
	defer ws.Release()
	batched := m.PredictProbaInto(mat.NewOf[float64](len(queries), m.Classes()), in, visible, queries, ws)

	for i, q := range queries {
		single := m.PredictProba(in, visible, []graph.NodeID{q})
		for j := 0; j < m.Classes(); j++ {
			if batched.At(i, j) != single.At(0, j) {
				t.Fatalf("query %d class %d: batched %v != single %v",
					i, j, batched.At(i, j), single.At(0, j))
			}
		}
	}
}

// TestPredictProbaIntoWorkspaceReuse pins the steady-state serving loop:
// Reset-and-reuse of one workspace across batches changes nothing.
func TestPredictProbaIntoWorkspaceReuse(t *testing.T) {
	m, in, visible, queries := trainToyModel(t)
	ws := mat.NewWorkspaceOf[float64]()
	defer ws.Release()
	first := m.PredictProbaInto(mat.NewOf[float64](len(queries), m.Classes()), in, visible, queries, ws).Clone()
	for iter := 0; iter < 3; iter++ {
		ws.Reset()
		again := m.PredictProbaInto(mat.NewOf[float64](len(queries), m.Classes()), in, visible, queries, ws)
		for k, v := range again.Data {
			if v != first.Data[k] {
				t.Fatalf("iteration %d element %d: %v != %v", iter, k, v, first.Data[k])
			}
		}
	}
}

// TestCastModelFloat32Serving pins the deploy-time quantisation path:
// float64-trained weights cast to float32 agree on every argmax and stay
// within loose probability tolerance of the float64 reference.
func TestCastModelFloat32Serving(t *testing.T) {
	m, in, visible, queries := trainToyModel(t)
	m32 := CastModel[float32](m)
	if m32.Classes() != m.Classes() {
		t.Fatalf("classes %d != %d", m32.Classes(), m.Classes())
	}
	in32 := CastInput[float32](in)

	p64 := m.PredictProba(in, visible, queries)
	p32 := m32.PredictProba(in32, visible, queries)
	for i := range queries {
		if a, b := mat.Argmax(p64.Row(i)), mat.Argmax(p32.Row(i)); a != b {
			t.Errorf("query %d: argmax %d (f64) != %d (f32)", i, a, b)
		}
		for j := 0; j < m.Classes(); j++ {
			if d := float64(p64.At(i, j)) - float64(p32.At(i, j)); d > 0.02 || d < -0.02 {
				t.Errorf("query %d class %d: |%v - %v| > 0.02", i, j, p64.At(i, j), p32.At(i, j))
			}
		}
	}

	// Same-precision cast must be bit-identical.
	same := CastModel[float64](m)
	q64 := same.PredictProba(in, visible, queries)
	for k := range q64.Data {
		if q64.Data[k] != p64.Data[k] {
			t.Fatalf("identity cast changed element %d: %v != %v", k, q64.Data[k], p64.Data[k])
		}
	}
}

// TestCastModelCheckpointRoundTrip verifies a cast model persists under
// the .f32 kind and loads back bit-identically — the artefact `trail
// train -f32` ships to the server.
func TestCastModelCheckpointRoundTrip(t *testing.T) {
	m, in, visible, queries := trainToyModel(t)
	m32 := CastModel[float32](m)
	path := t.TempDir() + "/model.f32.ck"
	if err := SaveModel(path, m32); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelOf[float64](path); err == nil {
		t.Fatal("float64 loader accepted a float32 checkpoint")
	}
	back, err := LoadModelOf[float32](path)
	if err != nil {
		t.Fatal(err)
	}
	in32 := CastInput[float32](in)
	want := m32.PredictProba(in32, visible, queries)
	got := back.PredictProba(in32, visible, queries)
	for k := range want.Data {
		if want.Data[k] != got.Data[k] {
			t.Fatalf("element %d: %v != %v after round trip", k, got.Data[k], want.Data[k])
		}
	}
}
