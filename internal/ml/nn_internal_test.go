package ml

import (
	"math"
	"math/rand"
	"testing"

	"trail/internal/mat"
)

func TestBatchNormTrainVsInference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bn := newBatchNorm(4)
	// Feed many training batches so running stats converge.
	for i := 0; i < 300; i++ {
		x := mat.RandNormalOf[float64](rng, 32, 4, 5, 2)
		bn.forward(x, true)
	}
	// At inference a batch drawn from the same distribution should come
	// out roughly standardised (gamma=1, beta=0 initially).
	x := mat.RandNormalOf[float64](rng, 512, 4, 5, 2)
	out := bn.forward(x, false)
	for j := 0; j < 4; j++ {
		col := make([]float64, out.Rows)
		for i := range col {
			col[i] = out.At(i, j)
		}
		if m := mat.Mean(col); math.Abs(m) > 0.2 {
			t.Fatalf("col %d inference mean %v", j, m)
		}
		if s := mat.Std(col); math.Abs(s-1) > 0.2 {
			t.Fatalf("col %d inference std %v", j, s)
		}
	}
}

func TestBatchNormGradientCheck(t *testing.T) {
	// Numerical gradient check of the batch-norm backward pass.
	rng := rand.New(rand.NewSource(12))
	bn := newBatchNorm(3)
	x := mat.RandNormalOf[float64](rng, 8, 3, 1, 2)

	loss := func(in *mat.Matrix) float64 {
		out := bn.forward(in, true)
		s := 0.0
		for _, v := range out.Data {
			s += v * v
		}
		return s / 2
	}

	out := bn.forward(x, true)
	grad := out.Clone() // dL/dout for L = sum(out^2)/2
	dx := bn.backward(grad)

	const eps = 1e-5
	for probe := 0; probe < 10; probe++ {
		i := rng.Intn(len(x.Data))
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss(x)
		x.Data[i] = orig - eps
		lm := loss(x)
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx.Data[i]) > 1e-3*(1+math.Abs(numeric)) {
			t.Fatalf("batchnorm gradient mismatch at %d: analytic %v numeric %v",
				i, dx.Data[i], numeric)
		}
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := &dropout{rate: 0.5, rng: rng}
	x := mat.RandNormalOf[float64](rng, 4, 6, 0, 1)
	out := d.forward(x, false)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("dropout altered inference output")
		}
	}
}

func TestDropoutTrainKeepsExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := &dropout{rate: 0.5, rng: rng}
	x := mat.NewOf[float64](1, 10000)
	x.Fill(1)
	out := d.forward(x, true)
	// Inverted dropout rescales so E[out] == E[in].
	if m := mat.Mean(out.Data); math.Abs(m-1) > 0.05 {
		t.Fatalf("dropout expectation drifted: %v", m)
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	layer := newDense(rng, 5, 3)
	x := mat.RandNormalOf[float64](rng, 4, 5, 0, 1)

	forwardLoss := func() float64 {
		out := layer.forward(x, true)
		s := 0.0
		for _, v := range out.Data {
			s += v * v
		}
		return s / 2
	}

	out := layer.forward(x, true)
	layer.w.G.Zero()
	layer.b.G.Zero()
	dx := layer.backward(out.Clone())

	const eps = 1e-6
	// Check input gradient.
	for probe := 0; probe < 5; probe++ {
		i := rng.Intn(len(x.Data))
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := forwardLoss()
		x.Data[i] = orig - eps
		lm := forwardLoss()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx.Data[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("dense dx mismatch: analytic %v numeric %v", dx.Data[i], numeric)
		}
	}
	// Check weight gradient.
	for probe := 0; probe < 5; probe++ {
		i := rng.Intn(len(layer.w.W.Data))
		orig := layer.w.W.Data[i]
		layer.w.W.Data[i] = orig + eps
		lp := forwardLoss()
		layer.w.W.Data[i] = orig - eps
		lm := forwardLoss()
		layer.w.W.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-layer.w.G.Data[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("dense dW mismatch: analytic %v numeric %v", layer.w.G.Data[i], numeric)
		}
	}
}
