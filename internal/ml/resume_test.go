package ml

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"

	"trail/internal/mat"
)

// TestCountingSourceMatchesPlainSource: the wrapper must not perturb the
// stream — existing trainers seeded the same way must see identical
// draws.
func TestCountingSourceMatchesPlainSource(t *testing.T) {
	a := rand.New(rand.NewSource(99))
	b := rand.New(NewCountingSource(99))
	for i := 0; i < 500; i++ {
		switch i % 4 {
		case 0:
			if a.Float64() != b.Float64() {
				t.Fatalf("Float64 diverged at %d", i)
			}
		case 1:
			if a.Intn(1000) != b.Intn(1000) {
				t.Fatalf("Intn diverged at %d", i)
			}
		case 2:
			if a.NormFloat64() != b.NormFloat64() {
				t.Fatalf("NormFloat64 diverged at %d", i)
			}
		case 3:
			pa, pb := a.Perm(7), b.Perm(7)
			for j := range pa {
				if pa[j] != pb[j] {
					t.Fatalf("Perm diverged at %d", i)
				}
			}
		}
	}
}

// TestRestoreRNGContinuesStream: draw k values, checkpoint, keep drawing;
// a restored source must produce the identical continuation.
func TestRestoreRNGContinuesStream(t *testing.T) {
	src := NewCountingSource(7)
	rng := rand.New(src)
	for i := 0; i < 137; i++ {
		rng.NormFloat64() // variable draws per call exercises the counter
	}
	st := src.State()

	want := make([]float64, 64)
	for i := range want {
		want[i] = rng.Float64()
	}

	// Round-trip the state through gob like a real checkpoint would.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var st2 RNGState
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(RestoreRNG(st2))
	for i, w := range want {
		if got := rng2.Float64(); got != w {
			t.Fatalf("restored stream diverged at draw %d: %v vs %v", i, got, w)
		}
	}
}

// TestAdamStateResumeEquivalence: snapshot Adam mid-run, keep stepping,
// then restore into a fresh optimiser and replay the remaining gradients;
// the weights must match bit for bit.
func TestAdamStateResumeEquivalence(t *testing.T) {
	newParams := func() []*ParamOf[float64] {
		rng := rand.New(rand.NewSource(3))
		return []*ParamOf[float64]{
			{W: mat.RandNormalOf[float64](rng, 4, 5, 0, 1), G: mat.NewOf[float64](4, 5)},
			{W: mat.RandNormalOf[float64](rng, 1, 5, 0, 1), G: mat.NewOf[float64](1, 5)},
		}
	}
	grads := func(step int, params []*ParamOf[float64]) {
		rng := rand.New(rand.NewSource(int64(1000 + step)))
		for _, p := range params {
			for i := range p.G.Data {
				p.G.Data[i] = rng.NormFloat64()
			}
		}
	}

	// Uninterrupted run: 20 steps.
	pa := newParams()
	oa := NewAdamOf(1e-2, pa)
	var snap AdamStateOf[float64]
	var wSnap []*mat.Matrix
	for s := 0; s < 20; s++ {
		if s == 11 {
			snap = oa.State()
			wSnap = CloneParams(pa)
		}
		grads(s, pa)
		oa.Step()
	}

	// Resumed run: restore weights + optimiser at step 11, replay 11..19.
	pb := newParams()
	if err := RestoreParams(pb, wSnap); err != nil {
		t.Fatal(err)
	}
	ob := NewAdamOf(1e-2, pb)
	if err := ob.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for s := 11; s < 20; s++ {
		grads(s, pb)
		ob.Step()
	}
	for i := range pa {
		for j, w := range pa[i].W.Data {
			if pb[i].W.Data[j] != w {
				t.Fatalf("param %d[%d]: resumed %v vs %v", i, j, pb[i].W.Data[j], w)
			}
		}
	}
}

func TestAdamRestoreShapeMismatch(t *testing.T) {
	p := []*ParamOf[float64]{{W: mat.NewOf[float64](2, 2), G: mat.NewOf[float64](2, 2)}}
	a := NewAdamOf(1e-3, p)
	st := a.State()
	st.M[0] = mat.NewOf[float64](3, 3)
	if err := a.Restore(st); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	b := NewAdamOf(1e-3, []*ParamOf[float64]{{W: mat.NewOf[float64](2, 2), G: mat.NewOf[float64](2, 2)}, {W: mat.NewOf[float64](1, 1), G: mat.NewOf[float64](1, 1)}})
	if err := b.Restore(a.State()); err == nil {
		t.Fatal("param count mismatch accepted")
	}
}

func TestClipGrads(t *testing.T) {
	p := []*ParamOf[float64]{{W: mat.NewOf[float64](1, 2), G: mat.NewOf[float64](1, 2)}}
	p[0].G.Data[0], p[0].G.Data[1] = 3, 4 // norm 5
	if norm := ClipGrads(p, 10); norm != 5 || p[0].G.Data[0] != 3 {
		t.Fatalf("under-threshold clip changed grads: norm %v data %v", norm, p[0].G.Data)
	}
	if norm := ClipGrads(p, 1); norm != 5 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	if got := GradNorm(p); math.Abs(got-1) > 1e-12 {
		t.Fatalf("post-clip norm %v", got)
	}
	if norm := ClipGrads(p, 0); norm == 0 {
		t.Fatal("disabled clip should still report the norm")
	}
}

func TestDivergenceDetection(t *testing.T) {
	if err := CheckLoss(3, math.NaN()); err == nil {
		t.Fatal("NaN loss accepted")
	} else {
		var d *DivergenceError
		if !errors.As(err, &d) || d.Epoch != 3 || d.Quantity != "loss" {
			t.Fatalf("wrong divergence error: %v", err)
		}
	}
	if err := CheckLoss(0, math.Inf(1)); err == nil {
		t.Fatal("Inf loss accepted")
	}
	if err := CheckLoss(0, 0.5); err != nil {
		t.Fatalf("finite loss rejected: %v", err)
	}
}

// TestNNFitDivergenceTyped: an absurd learning rate must surface as a
// DivergenceError, not as silent NaN weights.
func TestNNFitDivergenceTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := mat.RandNormalOf[float64](rng, 64, 8, 0, 100)
	y := make([]int, 64)
	for i := range y {
		y[i] = i % 2
	}
	cfg := DefaultNNConfig()
	cfg.Hidden = []int{16}
	cfg.Epochs = 60
	cfg.LR = 1e18
	nn := NewNN(cfg)
	err := nn.Fit(X, y)
	if err == nil {
		t.Skip("this configuration happened to stay finite")
	}
	var d *DivergenceError
	if !errors.As(err, &d) {
		t.Fatalf("divergence surfaced as untyped error: %v", err)
	}
}
