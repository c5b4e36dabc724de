package gnn

import (
	"context"
	"math"
	"testing"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/mat/mattest"
	"trail/internal/ml"
	"trail/internal/par"
	"trail/internal/sparse"
)

// The float32 pipeline is checked against the float64 reference in two
// regimes. Cross-precision (float32 training vs float64 training from
// the same seed) is a tolerance check: rounding compounds through the
// epochs, so outputs agree within mattest tolerances, not bitwise.
// Within-precision contracts — pooled vs allocating, serial vs
// parallel, reordered vs original-order inference — remain exact
// bit-identity at float32, exactly as at float64.

// sageTolerance absorbs the per-epoch rounding drift of float32
// training: after ~30 epochs the softmax outputs sit within a percent
// of the float64 reference on the toy graph.
var sageTolerance = mattest.Tol{Atol: 1e-3, Rtol: 1e-2}

func equivTrainSetup32(t *testing.T) (Input, InputOf[float32], []graph.NodeID) {
	t.Helper()
	in, train := equivTrainSetup(t)
	return in, CastInput[float32](in), train
}

func TestSAGEFloat32MatchesFloat64(t *testing.T) {
	in, in32, train := equivTrainSetup32(t)
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 30, Seed: 1}
	m64, err := TrainCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	m32, err := TrainCtx(in32, train, cfg, TrainOptsOf[float32]{})
	if err != nil {
		t.Fatal(err)
	}
	visible := map[graph.NodeID]int{}
	var queries []graph.NodeID
	for i, ev := range train {
		if i%2 == 0 {
			visible[ev] = in.Labels[ev]
		} else {
			queries = append(queries, ev)
		}
	}
	p64 := m64.PredictProba(in, visible, queries)
	p32 := m32.PredictProba(in32, visible, queries)
	mattest.Close(t, "SAGE PredictProba f32 vs f64", p32, p64, sageTolerance)

	want := m64.Predict(in, visible, queries)
	got := m32.Predict(in32, visible, queries)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: float32 predicts %d, float64 predicts %d", i, got[i], want[i])
		}
	}
}

func TestGCNFloat32MatchesFloat64(t *testing.T) {
	in, in32, train := equivTrainSetup32(t)
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 30, Seed: 1}
	g64, err := TrainGCNCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	g32, err := TrainGCNCtx(in32, train, cfg, TrainOptsOf[float32]{})
	if err != nil {
		t.Fatal(err)
	}
	visible := map[graph.NodeID]int{}
	var queries []graph.NodeID
	for i, ev := range train {
		if i%2 == 0 {
			visible[ev] = in.Labels[ev]
		} else {
			queries = append(queries, ev)
		}
	}
	want := g64.Predict(in, visible, queries)
	got := g32.Predict(in32, visible, queries)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: float32 predicts %d, float64 predicts %d", i, got[i], want[i])
		}
	}
}

func TestAEFloat32MatchesFloat64(t *testing.T) {
	X := mat.NewOf[float64](150, 24)
	for i := range X.Data {
		X.Data[i] = math.Sin(float64(i) * 0.7331)
	}
	X32 := mat.Cast[float32](X)
	cfg := AEConfig{Hidden: 16, Encoding: 8, LR: 1e-3, Epochs: 6, Batch: 32, Seed: 5}
	ae64 := NewAutoencoderOf[float64](cfg)
	if err := ae64.FitCtx(context.Background(), X); err != nil {
		t.Fatal(err)
	}
	ae32 := NewAutoencoderOf[float32](cfg)
	if err := ae32.FitCtx(context.Background(), X32); err != nil {
		t.Fatal(err)
	}
	e64, e32 := ae64.ReconstructionError(X), ae32.ReconstructionError(X32)
	if !sageTolerance.Within(e32, e64) {
		t.Fatalf("reconstruction error drifted: f32 %v vs f64 %v", e32, e64)
	}
	mattest.Close(t, "AE codes f32 vs f64", ae32.Encode(X32), ae64.Encode(X), sageTolerance)
}

// TestFloat32PooledTrainingMatchesAllocating is the pooled-equivalence
// contract at float32: swapping the float32 workspace hook for fresh
// allocations must not change one bit of the trained weights.
func TestFloat32PooledTrainingMatchesAllocating(t *testing.T) {
	_, in32, train := equivTrainSetup32(t)
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 5, Seed: 1}
	orig := newTrainWorkspace32
	newTrainWorkspace32 = mat.NewAllocWorkspaceOf[float32]
	ref, err := TrainCtx(in32, train, cfg, TrainOptsOf[float32]{})
	newTrainWorkspace32 = orig
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := TrainCtx(in32, train, cfg, TrainOptsOf[float32]{})
	if err != nil {
		t.Fatal(err)
	}
	assertParamsBitIdentical(t, "SAGE/f32", pooled.params(), ref.params())
}

// TestFloat32TrainingSerialParallelBitIdentical pins the parallel
// determinism contract at float32: the row-partitioned kernels must
// produce identical float32 bits at any worker count.
func TestFloat32TrainingSerialParallelBitIdentical(t *testing.T) {
	_, in32, train := equivTrainSetup32(t)
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 5, Seed: 1}
	prev := par.SetWorkers(1)
	serial, err := TrainCtx(in32, train, cfg, TrainOptsOf[float32]{})
	par.SetWorkers(8)
	parallel, err2 := TrainCtx(in32, train, cfg, TrainOptsOf[float32]{})
	par.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	if err2 != nil {
		t.Fatal(err2)
	}
	assertParamsBitIdentical(t, "SAGE/f32 serial vs parallel", parallel.params(), serial.params())
}

// TestSAGEInferenceReorderedBitIdentical forces the degree-descending
// inference reordering onto the toy graph and checks every public
// prediction surface is bit-identical to the original-order pass, at
// both precisions. The input's CSR is left nil so each call builds (and
// caches per-call) its own snapshot under the active gate.
func TestSAGEInferenceReorderedBitIdentical(t *testing.T) {
	in, in32, train := equivTrainSetup32(t)
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 5, Seed: 1}
	m64, err := TrainCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	m32, err := TrainCtx(in32, train, cfg, TrainOptsOf[float32]{})
	if err != nil {
		t.Fatal(err)
	}
	visible := map[graph.NodeID]int{}
	var queries []graph.NodeID
	for i, ev := range train {
		if i%2 == 0 {
			visible[ev] = in.Labels[ev]
		} else {
			queries = append(queries, ev)
		}
	}

	orig := sparse.ReorderMinRows
	defer func() { sparse.ReorderMinRows = orig }()

	sparse.ReorderMinRows = in.CSR.Rows + 1
	if _, p := inferOperator(in); p != nil {
		t.Fatal("reordering unexpectedly active below the gate")
	}
	wantProba64 := m64.PredictProba(in, visible, queries)
	wantPred64 := m64.Predict(in, visible, queries)
	wantConf64 := m64.Confidence(in, visible, queries)
	wantProba32 := m32.PredictProba(in32, visible, queries)

	sparse.ReorderMinRows = 1
	if _, p := inferOperator(in); p == nil {
		t.Fatal("reordering not active above the gate")
	}
	mattest.BitEqual(t, "PredictProba reordered", m64.PredictProba(in, visible, queries), wantProba64)
	mattest.BitEqual(t, "PredictProba/f32 reordered", m32.PredictProba(in32, visible, queries), wantProba32)
	gotPred := m64.Predict(in, visible, queries)
	for i := range wantPred64 {
		if gotPred[i] != wantPred64[i] {
			t.Fatalf("Predict reordered differs at %d: %d vs %d", i, gotPred[i], wantPred64[i])
		}
	}
	mattest.BitEqualVec(t, "Confidence reordered", m64.Confidence(in, visible, queries), wantConf64)
}

// TestGCNPredictReorderedBitIdentical is the same contract for the GCN
// baseline's prediction path.
func TestGCNPredictReorderedBitIdentical(t *testing.T) {
	in, train := equivTrainSetup(t)
	cfg := Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 5, Seed: 1}
	g, err := TrainGCNCtx(in, train, cfg, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	visible := map[graph.NodeID]int{}
	var queries []graph.NodeID
	for i, ev := range train {
		if i%2 == 0 {
			visible[ev] = in.Labels[ev]
		} else {
			queries = append(queries, ev)
		}
	}
	orig := sparse.ReorderMinRows
	defer func() { sparse.ReorderMinRows = orig }()
	sparse.ReorderMinRows = in.CSR.Rows + 1
	want := g.Predict(in, visible, queries)
	sparse.ReorderMinRows = 1
	got := g.Predict(in, visible, queries)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GCN Predict reordered differs at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestStepSteadyStateZeroAllocs asserts the zero-allocation contract
// for the training step at both precisions: after warm-up, a full
// forward/backward/update pass allocates nothing.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	in, in32, train := equivTrainSetup32(t)
	t.Run("float64", func(t *testing.T) { testStepZeroAllocs(t, in, train) })
	t.Run("float32", func(t *testing.T) { testStepZeroAllocs(t, in32, train) })
}

func testStepZeroAllocs[T mat.Float](t *testing.T, in InputOf[T], train []graph.NodeID) {
	m := NewModelOf[T](Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 1, Seed: 3}, in.Classes)
	ps := m.params()
	opt := ml.NewAdamOf(m.Config.LR, ps)
	scr := newTrainScratch[T](m.classes, len(train))
	defer scr.ws.Release()
	for i, ev := range train {
		if i%2 == 0 {
			scr.visible[ev] = in.Labels[ev]
		} else {
			scr.targets = append(scr.targets, ev)
		}
	}
	pass := m.stepper(in, scr)
	step := func() {
		pass(nil)
		if err := update(ps, opt, m.Config.ClipNorm, 0); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the workspace pool and the operator caches
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state step allocates %v times per call", allocs)
	}
}
