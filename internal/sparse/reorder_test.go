package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"trail/internal/mat"
)

// TestDegreePermutationOrder checks the relabelling is degree-descending
// and stable on ties.
func TestDegreePermutationOrder(t *testing.T) {
	// degrees: 1, 3, 0, 3, 2 → order 1, 3 (tie keeps 1 first), 4, 0, 2
	adj := [][]int32{{1}, {0, 3, 4}, {}, {1, 4, 0}, {1, 3}}
	p := FromAdj(adj).DegreePermutation()
	want := []int32{1, 3, 4, 0, 2}
	for i, o := range want {
		if p.Perm[i] != o {
			t.Fatalf("Perm = %v, want %v", p.Perm, want)
		}
		if p.Inv[o] != int32(i) {
			t.Fatalf("Inv[%d] = %d, want %d", o, p.Inv[o], i)
		}
	}
}

// TestPermuteRowsBitIdentical pins the contract the reordered execution
// paths rely on: row r of the permuted SpMM output is bit-identical to
// row Perm[r] of the unpermuted output, for plain, sym-normalised,
// self-loop and mean-normalised (RowScale) operators.
func TestPermuteRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adj := randAdj(rng, 150, 400)
	base := FromAdj(adj)
	x := mat.RandUniformOf[float64](rng, 150, 7, 1)
	ops := map[string]*Matrix{
		"plain": base,
		"sym":   base.SymNormalized(),
		"loops": base.SymNormalizedWithSelfLoops(),
		"mean":  base.MeanNormalized(),
	}
	for name, s := range ops {
		p := s.DegreePermutation()
		if p.IsIdentity() {
			t.Fatalf("%s: fixture accidentally degree-sorted", name)
		}
		ps := s.Permute(p)
		xp := GatherRowsInto(p, mat.NewOf[float64](x.Rows, x.Cols), x)

		want := s.Mul(x)
		got := ps.Mul(xp)
		for r := 0; r < s.Rows; r++ {
			wrow := want.Row(int(p.Perm[r]))
			grow := got.Row(r)
			for c := range wrow {
				if math.Float64bits(wrow[c]) != math.Float64bits(grow[c]) {
					t.Fatalf("%s: permuted row %d != original row %d at col %d: %v vs %v",
						name, r, p.Perm[r], c, grow[c], wrow[c])
				}
			}
		}
		// Scatter back and require bitwise equality with the original-order
		// product.
		back := ScatterRowsInto(p, mat.NewOf[float64](x.Rows, x.Cols), got)
		for i := range want.Data {
			if math.Float64bits(back.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: scatter-back diverges at flat index %d", name, i)
			}
		}
	}
}

// TestPermuteNormalizeCommute checks that normalising the permuted
// operator equals permuting the normalised operator — the property that
// lets consumers reorder first and normalise per epoch.
func TestPermuteNormalizeCommute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := FromAdj(randAdj(rng, 90, 260))
	p := base.DegreePermutation()

	a := base.Permute(p).MeanNormalized()
	b := base.MeanNormalized().Permute(p)
	x := mat.RandUniformOf[float64](rng, 90, 5, 1)
	ya, yb := a.Mul(x), b.Mul(x)
	for i := range ya.Data {
		if math.Float64bits(ya.Data[i]) != math.Float64bits(yb.Data[i]) {
			t.Fatalf("mean-normalise and permute do not commute at %d", i)
		}
	}

	a2 := base.Permute(p).SymNormalizedWithSelfLoops()
	b2 := base.SymNormalizedWithSelfLoops().Permute(p)
	ya2, yb2 := a2.Mul(x), b2.Mul(x)
	for i := range ya2.Data {
		if math.Float64bits(ya2.Data[i]) != math.Float64bits(yb2.Data[i]) {
			t.Fatalf("gcn-normalise and permute do not commute at %d", i)
		}
	}
}

// TestReorderedGating checks the size gate and the caching behaviour.
func TestReorderedGating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := FromAdj(randAdj(rng, 50, 120))
	if m, p := small.Reordered(); m != small || p != nil {
		t.Fatal("sub-threshold matrix should return itself unpermuted")
	}

	defer func(old int) { ReorderMinRows = old }(ReorderMinRows)
	ReorderMinRows = 10
	s := FromAdj(randAdj(rng, 64, 200))
	m1, p1 := s.Reordered()
	if p1 == nil || m1 == s {
		t.Fatal("above-threshold matrix should be permuted")
	}
	m2, p2 := s.Reordered()
	if m1 != m2 || p1 != p2 {
		t.Fatal("Reordered should cache its result")
	}
	// Hub prefix: permuted degrees must be non-increasing.
	deg := m1.Degrees()
	if !sort.IsSorted(sort.Reverse(sort.IntSlice(deg))) {
		t.Fatalf("reordered degrees not descending: %v", deg)
	}
}
