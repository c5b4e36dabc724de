package sparse

import (
	"math"
	"math/rand"
	"testing"

	"trail/internal/mat"
	"trail/internal/par"
)

// randAdj builds a random symmetric adjacency (both directions stored,
// no self-loops, no duplicates) over n nodes.
func randAdj(rng *rand.Rand, n, edges int) [][]int32 {
	adj := make([][]int32, n)
	seen := map[[2]int]bool{}
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		seen[[2]int{v, u}] = true
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	return adj
}

// dense expands s into a dense matrix for reference arithmetic.
func dense(s *Matrix) *mat.Matrix {
	d := mat.NewOf[float64](s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		scale := 1.0
		if s.RowScale != nil {
			scale = s.RowScale[i]
		}
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			d.Set(i, int(s.ColIdx[k]), d.At(i, int(s.ColIdx[k]))+s.Val[k]*scale)
		}
	}
	return d
}

func TestFromAdjStructure(t *testing.T) {
	adj := [][]int32{{1, 2}, {0}, {0}, {}}
	s := FromAdj(adj)
	if s.Rows != 4 || s.Cols != 4 || s.NNZ() != 4 {
		t.Fatalf("bad shape: %dx%d nnz %d", s.Rows, s.Cols, s.NNZ())
	}
	deg := s.Degrees()
	want := []int{2, 1, 1, 0}
	for i := range want {
		if deg[i] != want[i] {
			t.Fatalf("degree[%d] = %d, want %d", i, deg[i], want[i])
		}
	}
	sums := s.RowSums()
	for i := range want {
		if sums[i] != float64(want[i]) {
			t.Fatalf("rowsum[%d] = %v, want %d", i, sums[i], want[i])
		}
	}
}

func TestSpMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj := randAdj(rng, 30, 80)
	for _, build := range []func(*Matrix) *Matrix{
		func(s *Matrix) *Matrix { return s },
		(*Matrix).SymNormalized,
		(*Matrix).SymNormalizedWithSelfLoops,
		(*Matrix).MeanNormalized,
	} {
		s := build(FromAdj(adj))
		x := mat.RandNormalOf[float64](rng, 30, 5, 0, 1)
		got := s.Mul(x)
		want := mat.MatMul(dense(s), x)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("SpMM mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestTransposeFoldsRowScale(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	adj := randAdj(rng, 25, 60)
	s := FromAdj(adj).MeanNormalized()
	st := s.Transpose()
	if st.RowScale != nil {
		t.Fatal("transpose should fold RowScale into values")
	}
	d := dense(s)
	dt := dense(st)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if math.Abs(d.At(i, j)-dt.At(j, i)) > 1e-15 {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSpMMTransIsAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	adj := randAdj(rng, 20, 50)
	s := FromAdj(adj).MeanNormalized()
	x := mat.RandNormalOf[float64](rng, 20, 4, 0, 1)
	y := mat.RandNormalOf[float64](rng, 20, 4, 0, 1)
	lhs := mat.Dot(s.Mul(x).Data, y.Data)
	rhs := mat.Dot(x.Data, s.MulTrans(y).Data)
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("<Sx,y> != <x,Sᵀy>: %v vs %v", lhs, rhs)
	}
}

func TestSymNormalizedPreservesConstantOnRegular(t *testing.T) {
	// Ring graph: 2-regular, so D^{-1/2} A D^{-1/2} has eigenvalue 1 on
	// the constant vector.
	const n = 8
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		adj[i] = []int32{int32((i + 1) % n), int32((i + n - 1) % n)}
	}
	s := FromAdj(adj).SymNormalized()
	x := mat.NewOf[float64](n, 1)
	x.Fill(1)
	out := s.Mul(x)
	for i := 0; i < n; i++ {
		if math.Abs(out.At(i, 0)-1) > 1e-12 {
			t.Fatalf("constant vector not preserved: %v", out.At(i, 0))
		}
	}
}

func TestSelfLoopInsertedFirst(t *testing.T) {
	adj := [][]int32{{1}, {0}}
	s := FromAdj(adj).SymNormalizedWithSelfLoops()
	if s.NNZ() != 4 {
		t.Fatalf("nnz %d, want 4", s.NNZ())
	}
	for i := 0; i < 2; i++ {
		if s.ColIdx[s.RowPtr[i]] != int32(i) {
			t.Fatalf("row %d does not start with its diagonal entry", i)
		}
	}
	// deg+1 = 2 for both nodes: diagonal weight 1/2, off-diagonal 1/2.
	for k := 0; k < 4; k++ {
		if math.Abs(s.Val[k]-0.5) > 1e-15 {
			t.Fatalf("val[%d] = %v, want 0.5", k, s.Val[k])
		}
	}
}

func TestWithValuesSharesStructure(t *testing.T) {
	adj := [][]int32{{1, 2}, {0}, {0}}
	s := FromAdj(adj)
	val := []float64{2, 3, 4, 5}
	scale := []float64{1, 0.5, 0.25}
	w := s.WithValues(val, scale)
	if &w.ColIdx[0] != &s.ColIdx[0] {
		t.Fatal("WithValues must share ColIdx")
	}
	x := mat.NewOf[float64](3, 1)
	x.Fill(1)
	out := w.Mul(x)
	want := []float64{(2 + 3) * 1, 4 * 0.5, 5 * 0.25}
	for i, v := range want {
		if math.Abs(out.At(i, 0)-v) > 1e-15 {
			t.Fatalf("row %d: %v, want %v", i, out.At(i, 0), v)
		}
	}
}

// TestSpMMSerialParallelBitIdentical is the determinism test: the same
// SpMM on the same matrix must produce bit-identical output at any
// worker count, including on inputs large enough to cross the parallel
// threshold.
func TestSpMMSerialParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	adj := randAdj(rng, 800, 6000)
	s := FromAdj(adj).SymNormalized()
	x := mat.RandNormalOf[float64](rng, 800, 32, 0, 1)

	prev := par.SetWorkers(1)
	serial := s.Mul(x)
	par.SetWorkers(8)
	parallel := s.Mul(x)
	par.SetWorkers(prev)

	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("serial and parallel SpMM differ at %d: %v vs %v",
				i, serial.Data[i], parallel.Data[i])
		}
	}
}
