package gnn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trail/internal/ckpt"
	"trail/internal/graph"
	"trail/internal/ml"
)

func trainSplit(byClass [][]graph.NodeID) []graph.NodeID {
	var train []graph.NodeID
	for _, evs := range byClass {
		train = append(train, evs...)
	}
	return train
}

func resumeCfg(epochs int) Config {
	return Config{Layers: 2, Hidden: 8, Encoding: 16, LR: 5e-3, Epochs: epochs, Seed: 3}
}

func sageWeights(m *Model) [][]float64 {
	var out [][]float64
	for _, p := range m.params() {
		out = append(out, p.W.Data)
	}
	return out
}

func gcnWeights(g *GCNOf[float64]) [][]float64 {
	var out [][]float64
	for _, p := range g.params() {
		out = append(out, p.W.Data)
	}
	return out
}

func assertWeightsEqual(t *testing.T, tag string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d weight tensors", tag, len(want), len(got))
	}
	for ti := range want {
		if len(want[ti]) != len(got[ti]) {
			t.Fatalf("%s: tensor %d size mismatch", tag, ti)
		}
		for i := range want[ti] {
			if want[ti][i] != got[ti][i] {
				t.Fatalf("%s: tensor %d element %d differs: %v vs %v (weights not bit-identical)",
					tag, ti, i, want[ti][i], got[ti][i])
			}
		}
	}
}

// TestSAGEResumeBitIdentical is the tentpole assertion: for EVERY epoch
// boundary k, cancelling training after k epochs (the checkpoint is
// persisted through the checksummed envelope, as a real crash-recovery
// would) and resuming from the on-disk state yields final weights
// bit-identical to an uninterrupted run.
func TestSAGEResumeBitIdentical(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 3, 6, 5)
	train := trainSplit(byClass)
	const epochs = 5
	cfg := resumeCfg(epochs)

	ref, err := TrainCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatalf("uninterrupted train: %v", err)
	}
	want := sageWeights(ref)

	for k := 1; k < epochs; k++ {
		path := filepath.Join(t.TempDir(), "sage.ck")
		ctx, cancel := context.WithCancel(context.Background())
		_, err := TrainCtx(in, train, cfg, TrainOpts{
			Ctx: ctx,
			Checkpoint: func(st *TrainState) error {
				if err := SaveTrainState(path, st); err != nil {
					return err
				}
				if st.Epoch >= k {
					cancel() // simulate SIGINT after epoch k
				}
				return nil
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: want context.Canceled, got %v", k, err)
		}
		st, err := LoadTrainStateOf[float64](path)
		if err != nil {
			t.Fatalf("k=%d: load checkpoint: %v", k, err)
		}
		if st.Arch != archSAGE || st.Epoch != k {
			t.Fatalf("k=%d: checkpoint carries arch=%q epoch=%d", k, st.Arch, st.Epoch)
		}
		resumed, err := TrainCtx(in, train, cfg, TrainOpts{Resume: st})
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		assertWeightsEqual(t, fmt.Sprintf("sage k=%d", k), want, sageWeights(resumed))
	}
}

// TestGCNResumeBitIdentical mirrors the SAGE harness for the GCN trainer.
func TestGCNResumeBitIdentical(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 3, 6, 5)
	train := trainSplit(byClass)
	const epochs = 4
	cfg := resumeCfg(epochs)

	ref, err := TrainGCNCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatalf("uninterrupted train: %v", err)
	}
	want := gcnWeights(ref)

	for k := 1; k < epochs; k++ {
		path := filepath.Join(t.TempDir(), "gcn.ck")
		ctx, cancel := context.WithCancel(context.Background())
		_, err := TrainGCNCtx(in, train, cfg, TrainOpts{
			Ctx: ctx,
			Checkpoint: func(st *TrainState) error {
				if err := SaveTrainState(path, st); err != nil {
					return err
				}
				if st.Epoch >= k {
					cancel()
				}
				return nil
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: want context.Canceled, got %v", k, err)
		}
		st, err := LoadTrainStateOf[float64](path)
		if err != nil {
			t.Fatalf("k=%d: load checkpoint: %v", k, err)
		}
		if st.Arch != archGCN || st.Epoch != k {
			t.Fatalf("k=%d: checkpoint carries arch=%q epoch=%d", k, st.Arch, st.Epoch)
		}
		resumed, err := TrainGCNCtx(in, train, cfg, TrainOpts{Resume: st})
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		assertWeightsEqual(t, fmt.Sprintf("gcn k=%d", k), want, gcnWeights(resumed))
	}
}

// TestResumeArchMismatch: a SAGE checkpoint fed to the GCN trainer (and
// vice versa) is rejected with a typed error, not misapplied.
func TestResumeArchMismatch(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 4, 4)
	train := trainSplit(byClass)
	cfg := resumeCfg(2)
	var st *TrainState
	if _, err := TrainCtx(in, train, cfg, TrainOpts{
		Checkpoint: func(s *TrainState) error { st = s; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainGCNCtx(in, train, cfg, TrainOpts{Resume: st}); err == nil {
		t.Fatal("GCN trainer accepted a SAGE checkpoint")
	}
}

// TestSAGEPersistRoundTrip: a trained model survives Save/Load with
// bit-identical weights and identical predictions.
func TestSAGEPersistRoundTrip(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 3, 5, 4)
	train := trainSplit(byClass)
	m, err := TrainCtx(in, train, resumeCfg(3), TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ck")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	assertWeightsEqual(t, "sage round trip", sageWeights(m), sageWeights(got))
	wantPred := m.Predict(in, nil, train)
	gotPred := got.Predict(in, nil, train)
	for i := range wantPred {
		if wantPred[i] != gotPred[i] {
			t.Fatalf("prediction %d differs after round trip", i)
		}
	}
}

// TestTrainStateCorruption: a flipped byte or truncated tail in a
// persisted checkpoint surfaces as a typed ckpt error, never as garbage
// weights.
func TestTrainStateCorruption(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 4, 4)
	train := trainSplit(byClass)
	path := filepath.Join(t.TempDir(), "train.ck")
	if _, err := TrainCtx(in, train, resumeCfg(2), TrainOpts{
		Checkpoint: func(st *TrainState) error { return SaveTrainState(path, st) },
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrainStateOf[float64](path); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("bit flip: want ErrCorrupt, got %v", err)
	}

	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrainStateOf[float64](path); !errors.Is(err, ckpt.ErrTruncated) {
		t.Fatalf("truncation: want ErrTruncated, got %v", err)
	}
}

// TestModelVersionSkew: a checkpoint written under a future payload
// version is rejected with *ckpt.VersionError.
func TestModelVersionSkew(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 4, 4)
	m, err := TrainCtx(in, trainSplit(byClass), resumeCfg(2), TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ck")
	if err := ckpt.SaveGob(path, KindSAGE, VersionSAGE+1, m); err != nil {
		t.Fatal(err)
	}
	var verr *ckpt.VersionError
	if _, err := LoadModel(path); !errors.As(err, &verr) {
		t.Fatalf("want *ckpt.VersionError, got %v", err)
	}
}

// TestFineTuneRestoresLR: the fine-tuning learning-rate override is
// rolled back even when fit fails early (the defer-restore satellite).
func TestFineTuneRestoresLR(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 4, 4)
	train := trainSplit(byClass)
	m, err := TrainCtx(in, train, resumeCfg(2), TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	orig := m.Config.LR
	if err := m.FineTune(in, train[:1], 2); err == nil {
		t.Fatal("FineTune with one event should fail")
	}
	if m.Config.LR != orig {
		t.Fatalf("LR not restored after failed FineTune: %v vs %v", m.Config.LR, orig)
	}
	if err := m.FineTune(in, train, 1); err != nil {
		t.Fatal(err)
	}
	if m.Config.LR != orig {
		t.Fatalf("LR not restored after FineTune: %v vs %v", m.Config.LR, orig)
	}
	// FineTune's epoch budget is a temporary override too.
	if m.Config.Epochs != 2 {
		t.Fatalf("Epochs not restored after FineTune: %d, want 2", m.Config.Epochs)
	}
}

// TestResumeClassCountMismatch: a model that predicts a different
// number of classes than the input carries is rejected with an error —
// resumed from a checkpoint by either trainer, or fine-tuned — instead
// of indexing past its logits (an index-out-of-range panic in the loss).
func TestResumeClassCountMismatch(t *testing.T) {
	in2, byClass2 := buildToyAttributionGraph(t, 2, 4, 4)
	train2 := trainSplit(byClass2)
	in3, byClass3 := buildToyAttributionGraph(t, 3, 4, 4)
	train3 := trainSplit(byClass3)
	cfg := resumeCfg(2)
	lastState := func(t *testing.T, trainer func(TrainOpts) error) *TrainState {
		t.Helper()
		var st *TrainState
		if err := trainer(TrainOpts{Checkpoint: func(s *TrainState) error { st = s; return nil }}); err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"SAGE resume", func(t *testing.T) error {
			st := lastState(t, func(o TrainOpts) error { _, err := TrainCtx(in2, train2, cfg, o); return err })
			_, err := TrainCtx(in3, train3, cfg, TrainOpts{Resume: st})
			return err
		}},
		{"GCN resume", func(t *testing.T) error {
			st := lastState(t, func(o TrainOpts) error { _, err := TrainGCNCtx(in2, train2, cfg, o); return err })
			_, err := TrainGCNCtx(in3, train3, cfg, TrainOpts{Resume: st})
			return err
		}},
		{"FineTune", func(t *testing.T) error {
			m, err := TrainCtx(in2, train2, cfg, TrainOpts{})
			if err != nil {
				t.Fatal(err)
			}
			return m.FineTune(in3, train3, 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil || !strings.Contains(err.Error(), "predicts 2 classes, input has 3") {
				t.Fatalf("want a class-count error, got %v", err)
			}
		})
	}
}

// buildMultiKindGraph creates IOC nodes of all three encoder kinds with
// features, for the encoder-set resume test.
func buildMultiKindGraph(t *testing.T) (*graph.Graph, map[graph.NodeID][]float64) {
	t.Helper()
	g := graph.New()
	feats := make(map[graph.NodeID][]float64)
	dim := 6
	mk := func(kind graph.NodeKind, prefix string, n int) {
		for i := 0; i < n; i++ {
			id, _ := g.Upsert(kind, fmt.Sprintf("%s-%d", prefix, i))
			row := make([]float64, dim)
			for j := range row {
				row[j] = float64((i+j)%5) + float64(kind)
			}
			feats[id] = row
		}
	}
	mk(graph.KindIP, "ip", 12)
	mk(graph.KindURL, "url", 12)
	mk(graph.KindDomain, "dom", 12)
	return g, feats
}

// TestEncoderSetKindResume: interrupting encoder training between kinds
// and resuming from the persisted partial set reproduces the
// uninterrupted set bit for bit (asserted via the deterministic gob
// encoding).
func TestEncoderSetKindResume(t *testing.T) {
	g, feats := buildMultiKindGraph(t)
	cfg := AEConfig{Hidden: 8, Encoding: 4, LR: 1e-3, Epochs: 2, Batch: 4, Seed: 9}

	ref, err := TrainEncodersCtx(context.Background(), g, feats, cfg, EncoderTrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := ref.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.AEs) != 3 {
		t.Fatalf("fixture trained %d kinds, want 3", len(ref.AEs))
	}

	path := filepath.Join(t.TempDir(), "enc.ck")
	ctx, cancel := context.WithCancel(context.Background())
	_, err = TrainEncodersCtx(ctx, g, feats, cfg, EncoderTrainOpts{
		Checkpoint: func(partial *EncoderSet) error {
			if err := SaveEncoders(path, partial); err != nil {
				return err
			}
			cancel() // interrupt after the first kind completes
			return nil
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	partial, err := LoadEncoders(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.AEs) != 1 {
		t.Fatalf("partial checkpoint carries %d kinds, want 1", len(partial.AEs))
	}
	resumed, err := TrainEncodersCtx(context.Background(), g, feats, cfg, EncoderTrainOpts{Resume: partial})
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := resumed.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if string(wantBytes) != string(gotBytes) {
		t.Fatal("resumed encoder set differs from uninterrupted set")
	}
}

// TestEncoderSetPersistRoundTrip: Save/Load preserves encodings exactly.
func TestEncoderSetPersistRoundTrip(t *testing.T) {
	g, feats := buildMultiKindGraph(t)
	cfg := AEConfig{Hidden: 8, Encoding: 4, LR: 1e-3, Epochs: 2, Batch: 4, Seed: 9}
	set, err := TrainEncodersCtx(context.Background(), g, feats, cfg, EncoderTrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "enc.ck")
	if err := SaveEncoders(path, set); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEncoders(path)
	if err != nil {
		t.Fatal(err)
	}
	want := set.EncodeGraph(g, feats)
	have := got.EncodeGraph(g, feats)
	for i := range want.Data {
		if want.Data[i] != have.Data[i] {
			t.Fatalf("encoding element %d differs after round trip", i)
		}
	}
	// Deterministic payload: encoding twice yields identical bytes.
	b1, err := set.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := set.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("EncoderSet gob encoding is not deterministic")
	}
}

// trainers are the two callers of the epoch driver, each reduced to "train
// and return the weights" (nil when no model comes back).
var trainers = []struct {
	name  string
	train func(in Input, train []graph.NodeID, cfg Config, opts TrainOpts) ([][]float64, error)
}{
	{"SAGE", func(in Input, train []graph.NodeID, cfg Config, opts TrainOpts) ([][]float64, error) {
		m, err := TrainCtx(in, train, cfg, opts)
		if m == nil {
			return nil, err
		}
		return sageWeights(m), err
	}},
	{"GCN", func(in Input, train []graph.NodeID, cfg Config, opts TrainOpts) ([][]float64, error) {
		g, err := TrainGCNCtx(in, train, cfg, opts)
		if g == nil {
			return nil, err
		}
		return gcnWeights(g), err
	}},
}

// TestCheckpointEveryStride: CheckpointEvery > 1 only fires on the
// stride, but a cancellation still persists the current epoch.
func TestCheckpointEveryStride(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 4, 4)
	train := trainSplit(byClass)
	cfg := resumeCfg(6)
	for _, tr := range trainers {
		t.Run(tr.name, func(t *testing.T) {
			var epochs []int
			if _, err := tr.train(in, train, cfg, TrainOpts{
				CheckpointEvery: 3,
				Checkpoint:      func(st *TrainState) error { epochs = append(epochs, st.Epoch); return nil },
			}); err != nil {
				t.Fatal(err)
			}
			if len(epochs) != 2 || epochs[0] != 3 || epochs[1] != 6 {
				t.Fatalf("stride-3 checkpoints at %v, want [3 6]", epochs)
			}

			// Cancel mid-stride: the final checkpoint carries the true epoch.
			ctx, cancel := context.WithCancel(context.Background())
			epochs = nil
			_, err := tr.train(in, train, cfg, TrainOpts{
				Ctx:             ctx,
				CheckpointEvery: 3,
				Checkpoint: func(st *TrainState) error {
					epochs = append(epochs, st.Epoch)
					if st.Epoch == 3 {
						cancel()
					}
					return nil
				},
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if len(epochs) != 2 || epochs[1] != 3 {
				t.Fatalf("cancellation checkpoints at %v, want final at epoch 3", epochs)
			}
		})
	}
}

// TestDivergenceRollback: a training run driven into divergence returns
// the typed error AND a model whose weights are finite (rolled back to
// the best epoch), plus ErrDivergence sentinel matching.
func TestDivergenceRollback(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 4, 4)
	train := trainSplit(byClass)
	cfg := resumeCfg(8)
	cfg.LR = math.MaxFloat64 // drives weights to Inf, then Inf·0 → NaN
	for _, tr := range trainers {
		t.Run(tr.name, func(t *testing.T) {
			weights, err := tr.train(in, train, cfg, TrainOpts{})
			var div *ml.DivergenceError
			if !errors.As(err, &div) {
				t.Fatalf("want *ml.DivergenceError, got %v", err)
			}
			if weights == nil {
				t.Fatal("divergence must still return the rolled-back model")
			}
			for _, ws := range weights {
				for _, v := range ws {
					if v != v { // NaN check
						t.Fatal("rolled-back model carries NaN weights")
					}
				}
			}
		})
	}
}
