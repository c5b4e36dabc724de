package sparse

import (
	"math"
	"math/rand"
	"testing"

	"trail/internal/mat"
	"trail/internal/par"
)

func randFeatures(rng *rand.Rand, rows, cols int) *mat.Matrix {
	x := mat.NewOf[float64](rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// composedSAGELayer is the three-kernel path SAGELayerInto fuses:
// aggregate, transform, bias, self path.
func composedSAGELayer(s *Matrix, x, wMean, wSelf *mat.Matrix, bias []float64) *mat.Matrix {
	z := mat.MatMul(s.Mul(x), wMean)
	z.AddRowVector(bias)
	return mat.AddInPlace(z, mat.MatMul(x, wSelf))
}

func TestSAGELayerIntoMatchesComposedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, din, dout := 60, 12, 8
	s := FromAdj(randAdj(rng, n, 150)).MeanNormalized()
	x := randFeatures(rng, n, din)
	wMean := randFeatures(rng, din, dout)
	wSelf := randFeatures(rng, din, dout)
	bias := make([]float64, dout)
	for j := range bias {
		bias[j] = rng.NormFloat64()
	}
	want := composedSAGELayer(s, x, wMean, wSelf, bias)

	// Dirty destination: the kernel must fully overwrite it (the GetDirty
	// contract), at any worker count.
	for _, workers := range []int{1, 4} {
		prev := par.SetWorkers(workers)
		got := mat.NewOf[float64](n, dout)
		got.Fill(math.Inf(1))
		s.SAGELayerInto(got, x, wMean, wSelf, bias)
		par.SetWorkers(prev)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("workers=%d: Data[%d] = %v, want %v", workers, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestSAGELayerIntoShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := FromAdj(randAdj(rng, 10, 20))
	x := randFeatures(rng, 10, 4)
	w := randFeatures(rng, 4, 3)
	bias := make([]float64, 3)
	cases := []struct {
		name string
		f    func()
	}{
		{"bad dst", func() { s.SAGELayerInto(mat.NewOf[float64](9, 3), x, w, w, bias) }},
		{"bad bias", func() { s.SAGELayerInto(mat.NewOf[float64](10, 3), x, w, w, bias[:2]) }},
		{"bad weights", func() { s.SAGELayerInto(mat.NewOf[float64](10, 3), x, randFeatures(rng, 5, 3), w, bias) }},
		{"aliased dst", func() { s.SAGELayerInto(x, x, randFeatures(rng, 4, 4), randFeatures(rng, 4, 4), make([]float64, 4)) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestSpMMIntoOverwritesDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := FromAdj(randAdj(rng, 30, 80)).SymNormalized()
	x := randFeatures(rng, 30, 6)
	want := s.Mul(x)
	got := mat.NewOf[float64](30, 6)
	got.Fill(math.NaN())
	s.SpMMInto(got, x)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("Data[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestSpMMIntoSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(8))
	s := FromAdj(randAdj(rng, 40, 100)).MeanNormalized()
	x := randFeatures(rng, 40, 8)
	dst := mat.NewOf[float64](40, 8)
	s.SpMMInto(dst, x) // warm the transpose/operator caches
	if allocs := testing.AllocsPerRun(50, func() { s.SpMMInto(dst, x) }); allocs != 0 {
		t.Fatalf("SpMMInto allocates %v times per call", allocs)
	}
}
