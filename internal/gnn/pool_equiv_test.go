package gnn

import (
	"context"
	"math"
	"testing"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/mat/mattest"
	"trail/internal/ml"
)

// The pooled hot loops must be arithmetically invisible: training with
// workspace-pooled scratch produces weights bit-identical to training
// with freshly allocated scratch (the pre-pool behaviour, preserved by
// mat.NewAllocWorkspaceOf). These tests swap the workspace constructor via
// the newTrainWorkspace hook and compare every parameter bit.

func withAllocWorkspace(t *testing.T, f func()) {
	t.Helper()
	orig := newTrainWorkspace
	newTrainWorkspace = mat.NewAllocWorkspaceOf[float64]
	defer func() { newTrainWorkspace = orig }()
	f()
}

func assertParamsBitIdentical[T mat.Float](t *testing.T, name string, got, want []*ml.ParamOf[T]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params vs %d", name, len(got), len(want))
	}
	for pi := range want {
		mattest.BitEqual(t, name, got[pi].W, want[pi].W)
	}
}

func equivTrainSetup(t *testing.T) (Input, []graph.NodeID) {
	t.Helper()
	in, byClass := buildToyAttributionGraph(t, 3, 8, 5)
	var train []graph.NodeID
	for _, evs := range byClass {
		train = append(train, evs...)
	}
	return in, train
}

func TestSAGEPooledTrainingMatchesAllocating(t *testing.T) {
	in, train := equivTrainSetup(t)
	for _, cfg := range []Config{
		{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 5, Seed: 1},
		{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 5, Seed: 1, MaxNeighbors: 2},
		{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 5, Seed: 1, ClipNorm: 0.5},
		{Layers: 3, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 5, Seed: 1, NoL2: true},
	} {
		var ref *Model
		withAllocWorkspace(t, func() {
			var err error
			ref, err = TrainCtx(in, train, cfg, TrainOpts{})
			if err != nil {
				t.Fatal(err)
			}
		})
		pooled, err := TrainCtx(in, train, cfg, TrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		assertParamsBitIdentical(t, "SAGE", pooled.params(), ref.params())
	}
}

func TestGCNPooledTrainingMatchesAllocating(t *testing.T) {
	in, train := equivTrainSetup(t)
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 5, Seed: 1}
	var ref *GCNOf[float64]
	withAllocWorkspace(t, func() {
		var err error
		ref, err = TrainGCNCtx(in, train, cfg, TrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	pooled, err := TrainGCNCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	assertParamsBitIdentical(t, "GCN", pooled.params(), ref.params())
}

func TestAEPooledTrainingMatchesAllocating(t *testing.T) {
	X := mat.NewOf[float64](150, 24)
	for i := range X.Data {
		X.Data[i] = math.Sin(float64(i) * 0.7331)
	}
	cfg := AEConfig{Hidden: 16, Encoding: 8, LR: 1e-3, Epochs: 4, Batch: 32, Seed: 5}
	var ref *AutoencoderOf[float64]
	withAllocWorkspace(t, func() {
		ref = NewAutoencoderOf[float64](cfg)
		if err := ref.FitCtx(context.Background(), X); err != nil {
			t.Fatal(err)
		}
	})
	pooled := NewAutoencoderOf[float64](cfg)
	if err := pooled.FitCtx(context.Background(), X); err != nil {
		t.Fatal(err)
	}
	var got, want []*ml.ParamOf[float64]
	for _, l := range []*linear[float64]{pooled.enc1, pooled.enc2, pooled.dec1, pooled.dec2} {
		got = append(got, l.params()...)
	}
	for _, l := range []*linear[float64]{ref.enc1, ref.enc2, ref.dec1, ref.dec2} {
		want = append(want, l.params()...)
	}
	assertParamsBitIdentical(t, "AE", got, want)
}

// TestForwardInferMatchesTrainingForward pins the fused inference path
// (SAGELayerInto + in-place relu/L2) to the training forward's logits.
func TestForwardInferMatchesTrainingForward(t *testing.T) {
	in, train := equivTrainSetup(t)
	for _, cfg := range []Config{
		{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 4, Seed: 2},
		{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 4, Seed: 2, NoL2: true},
	} {
		m, err := TrainCtx(in, train, cfg, TrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		visible := make(map[graph.NodeID]int, len(train))
		for _, ev := range train {
			visible[ev] = in.Labels[ev]
		}
		agg := meanOperator(in)

		ws := mat.NewWorkspaceOf[float64]()
		trainWS := trainWorkspaceOf[float64]()
		acts := newActivations[float64](len(m.layers))
		trainActs := m.forward(in, agg, visible, trainWS, &acts)
		wantLogits := trainActs.h[len(trainActs.h)-1]
		gotLogits := m.forwardInfer(in, agg, nil, visible, ws)
		assertBitEqual(t, "forwardInfer logits", gotLogits, wantLogits)
		ws.Release()
		trainWS.Release()
	}
}
