package mat_test

import (
	"math/rand"
	"testing"

	"trail/internal/mat"
	"trail/internal/mat/mattest"
	"trail/internal/par"
)

// This file lives in the external test package so it can exercise the
// kernels through the same lens every other package sees — and share the
// mattest comparison helpers without an import cycle.

// runBoth evaluates f once fully serial and once with 8 workers and
// returns both results, for bit-identity checks on the parallel kernels.
func runBoth(f func() *mat.Matrix) (serial, parallel *mat.Matrix) {
	prev := par.SetWorkers(1)
	serial = f()
	par.SetWorkers(8)
	parallel = f()
	par.SetWorkers(prev)
	return serial, parallel
}

// TestDenseKernelsSerialParallelBitIdentical pins the determinism
// contract for every parallelised dense kernel: identical bits at any
// worker count, on shapes large enough to cross the parallel threshold.
func TestDenseKernelsSerialParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := mat.RandNormalOf[float64](rng, 120, 90, 0, 1)
	b := mat.RandNormalOf[float64](rng, 90, 110, 0, 1)
	c := mat.RandNormalOf[float64](rng, 120, 110, 0, 1)

	s, p := runBoth(func() *mat.Matrix { return mat.MatMul(a, b) })
	mattest.BitEqual(t, "MatMulInto", s, p)

	s, p = runBoth(func() *mat.Matrix { return mat.MatMulTransA(a, c) })
	mattest.BitEqual(t, "MatMulTransA", s, p)

	s, p = runBoth(func() *mat.Matrix { return mat.MatMulTransB(a, a) })
	mattest.BitEqual(t, "MatMulTransB", s, p)

	s, p = runBoth(func() *mat.Matrix { return c.Clone().L2NormalizeRows() })
	mattest.BitEqual(t, "L2NormalizeRows", s, p)
}

// TestDenseKernelsFloat32SerialParallelBitIdentical is the same
// determinism contract at float32: the parallel row partition must not
// change a single bit at the storage precision either.
func TestDenseKernelsFloat32SerialParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := mat.RandNormalOf[float32](rng, 120, 90, 0, 1)
	b := mat.RandNormalOf[float32](rng, 90, 110, 0, 1)

	run := func(f func() *mat.Dense[float32]) (serial, parallel *mat.Dense[float32]) {
		prev := par.SetWorkers(1)
		serial = f()
		par.SetWorkers(8)
		parallel = f()
		par.SetWorkers(prev)
		return serial, parallel
	}
	s, p := run(func() *mat.Dense[float32] { return mat.MatMul(a, b) })
	mattest.BitEqual(t, "MatMulInto/f32", s, p)
	s, p = run(func() *mat.Dense[float32] { return mat.MatMulTransB(a, a) })
	mattest.BitEqual(t, "MatMulTransB/f32", s, p)
	s, p = run(func() *mat.Dense[float32] { return a.Clone().L2NormalizeRows() })
	mattest.BitEqual(t, "L2NormalizeRows/f32", s, p)
}

// TestParallelKernelsMatchReferenceLoops keeps the pre-refactor serial
// loop nests as references and checks the parallel kernels reproduce
// them bit for bit.
func TestParallelKernelsMatchReferenceLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := mat.RandNormalOf[float64](rng, 70, 130, 0, 1)
	b := mat.RandNormalOf[float64](rng, 130, 80, 0, 1)

	refMatMul := func(a, b *mat.Matrix) *mat.Matrix {
		out := mat.NewOf[float64](a.Rows, b.Cols)
		for i := 0; i < a.Rows; i++ {
			arow := a.Row(i)
			drow := out.Row(i)
			for k, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
		return out
	}
	refTransA := func(a, b *mat.Matrix) *mat.Matrix {
		out := mat.NewOf[float64](a.Cols, b.Cols)
		for k := 0; k < a.Rows; k++ {
			arow := a.Row(k)
			brow := b.Row(k)
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := out.Row(i)
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
		return out
	}

	prev := par.SetWorkers(8)
	defer par.SetWorkers(prev)
	mattest.BitEqual(t, "MatMul vs reference", refMatMul(a, b), mat.MatMul(a, b))
	mattest.BitEqual(t, "MatMulTransA vs reference",
		refTransA(a, refMatMul(a, b)), mat.MatMulTransA(a, refMatMul(a, b)))
}

// TestFloat32MatMulCloseToFloat64 sanity-checks the cross-precision
// comparator on a real kernel: the float32 MatMul lands within
// Float32Tol of the float64 product on unit-scale operands.
func TestFloat32MatMulCloseToFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := mat.RandNormalOf[float64](rng, 50, 60, 0, 1)
	b := mat.RandNormalOf[float64](rng, 60, 40, 0, 1)
	a32, b32 := mat.Cast[float32](a), mat.Cast[float32](b)
	mattest.Close(t, "MatMul f32 vs f64", mat.MatMul(a32, b32), mat.MatMul(a, b), mattest.Float32Tol)
}
