package gnn

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"trail/internal/ckpt"
	"trail/internal/graph"
	"trail/internal/mat/mattest"
)

// The element type is part of a checkpoint's identity: float32
// artefacts persist under ".f32"-suffixed kinds, so cross-precision
// loads fail with a typed *ckpt.KindError instead of silently
// reinterpreting weights at the wrong width.

func TestFloat32ModelRoundTrip(t *testing.T) {
	_, in32, train := equivTrainSetup32(t)
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 4, Seed: 9}
	m, err := TrainCtx(in32, train, cfg, TrainOptsOf[float32]{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model32.ck")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModelOf[float32](path)
	if err != nil {
		t.Fatal(err)
	}
	assertParamsBitIdentical(t, "f32 round-trip", got.params(), m.params())

	visible := map[graph.NodeID]int{}
	var queries []graph.NodeID
	for i, ev := range train {
		if i%2 == 0 {
			visible[ev] = in32.Labels[ev]
		} else {
			queries = append(queries, ev)
		}
	}
	mattest.BitEqual(t, "f32 round-trip proba",
		got.PredictProba(in32, visible, queries), m.PredictProba(in32, visible, queries))

	// The float64 loader must reject it with a kind mismatch, not decode
	// garbage.
	var kerr *ckpt.KindError
	if _, err := LoadModel(path); !errors.As(err, &kerr) {
		t.Fatalf("float64 load of a float32 checkpoint: got %v, want *ckpt.KindError", err)
	}
}

func TestFloat32TrainStateRoundTrip(t *testing.T) {
	_, in32, train := equivTrainSetup32(t)
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 4, Seed: 9}
	path := filepath.Join(t.TempDir(), "train32.ck")
	var saved *TrainStateOf[float32]
	_, err := TrainCtx(in32, train, cfg, TrainOptsOf[float32]{
		Checkpoint: func(st *TrainStateOf[float32]) error {
			saved = st
			return SaveTrainState(path, st)
		},
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if saved == nil {
		t.Fatal("no checkpoint emitted")
	}
	st, err := LoadTrainStateOf[float32](path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Arch != archSAGE || st.Epoch != saved.Epoch {
		t.Fatalf("round-trip state %q@%d, want %q@%d", st.Arch, st.Epoch, saved.Arch, saved.Epoch)
	}
	assertParamsBitIdentical(t, "f32 train-state weights", st.SAGE.params(), saved.SAGE.params())

	var kerr *ckpt.KindError
	if _, err := LoadTrainStateOf[float64](path); !errors.As(err, &kerr) {
		t.Fatalf("float64 load of a float32 train state: got %v, want *ckpt.KindError", err)
	}
}

func TestFloat32EncodersRoundTrip(t *testing.T) {
	g := graph.New()
	feats := map[graph.NodeID][]float64{}
	for i := 0; i < 40; i++ {
		id, _ := g.Upsert(graph.KindIP, string(rune('a'+i%26))+string(rune('0'+i/26)))
		feats[id] = []float64{float64(i), float64(i % 7), float64(i % 3)}
	}
	cfg := AEConfig{Hidden: 8, Encoding: 4, LR: 1e-3, Epochs: 3, Batch: 16, Seed: 2}
	set, err := TrainEncodersCtx(context.Background(), g, feats, cfg, EncoderTrainOptsOf[float32]{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "enc32.ck")
	if err := SaveEncoders(path, set); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEncodersOf[float32](path)
	if err != nil {
		t.Fatal(err)
	}
	mattest.BitEqual(t, "f32 encoders round-trip",
		got.EncodeGraph(g, feats), set.EncodeGraph(g, feats))

	var kerr *ckpt.KindError
	if _, err := LoadEncoders(path); !errors.As(err, &kerr) {
		t.Fatalf("float64 load of float32 encoders: got %v, want *ckpt.KindError", err)
	}
}
