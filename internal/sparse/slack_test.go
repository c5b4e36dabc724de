package sparse

import (
	"math"
	"math/rand"
	"testing"

	"trail/internal/mat"
)

// slackedFixture builds a random packed CSR and a slack-slotted view of
// the same logical matrix: every row is copied into a buffer with random
// slack between rows, and the slack slots are poisoned so any kernel
// that reads them fails loudly.
func slackedFixture(t *testing.T, rng *rand.Rand, n int) (*Matrix, *Matrix) {
	t.Helper()
	rowPtr := make([]int, n+1)
	var colIdx []int32
	for i := 0; i < n; i++ {
		deg := rng.Intn(5)
		for d := 0; d < deg; d++ {
			c := rng.Intn(n)
			if c == i { // keep the diagonal free for SymNormalizedWithSelfLoops
				c = (c + 1) % n
			}
			colIdx = append(colIdx, int32(c))
		}
		rowPtr[i+1] = len(colIdx)
	}
	packed := NewOf[float64](n, n, rowPtr, colIdx, nil)

	start := make([]int, n+1)
	end := make([]int, n)
	var buf []int32
	var val []float64
	for i := 0; i < n; i++ {
		start[i] = len(buf)
		row := colIdx[rowPtr[i]:rowPtr[i+1]]
		buf = append(buf, row...)
		for range row {
			val = append(val, 1)
		}
		end[i] = len(buf)
		for s := rng.Intn(4); s > 0; s-- { // poisoned slack
			buf = append(buf, int32(-1))
			val = append(val, math.NaN())
		}
	}
	start[n] = len(buf)
	return packed, NewSlackedOf(n, n, start, end, buf, val, packed.NNZ())
}

func bitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSlackedKernelsMatchPacked pins the slack contract: every kernel and
// constructor walks RowPtr[i]..End(i) only, so a slacked view computes
// bit-identical results to its packed equivalent even with poisoned
// slack slots.
func TestSlackedKernelsMatchPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(40)
		p, s := slackedFixture(t, rng, n)
		if p.NNZ() != s.NNZ() {
			t.Fatalf("trial %d: nnz %d vs %d", trial, p.NNZ(), s.NNZ())
		}

		x := mat.NewOf[float64](n, 3)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		dp, ds := mat.NewOf[float64](n, 3), mat.NewOf[float64](n, 3)
		p.SpMMInto(dp, x)
		s.SpMMInto(ds, x)
		if !bitsEq(dp.Data, ds.Data) {
			t.Fatalf("trial %d: SpMM diverges between packed and slacked", trial)
		}

		ps, ss := p.SymNormalized(), s.SymNormalized()
		p.SymNormalized().SpMMInto(dp, x)
		s.SymNormalized().SpMMInto(ds, x)
		if !bitsEq(dp.Data, ds.Data) {
			t.Fatalf("trial %d: SymNormalized SpMM diverges", trial)
		}
		for i := 0; i < n; i++ {
			pr := ps.Val[ps.RowPtr[i]:ps.End(i)]
			sr := ss.Val[ss.RowPtr[i]:ss.End(i)]
			if !bitsEq(pr, sr) {
				t.Fatalf("trial %d: sym row %d differs", trial, i)
			}
		}

		pm, sm := p.MeanNormalized(), s.MeanNormalized()
		if !bitsEq(pm.RowScale, sm.RowScale) {
			t.Fatalf("trial %d: mean RowScale differs", trial)
		}

		pl, sl := p.SymNormalizedWithSelfLoops(), s.SymNormalizedWithSelfLoops()
		if !bitsEq(pl.Val, sl.Val) {
			t.Fatalf("trial %d: self-loop operator differs", trial)
		}

		pt, st := p.Transpose(), s.Transpose()
		if !bitsEq(pt.Val, st.Val) || pt.NNZ() != st.NNZ() {
			t.Fatalf("trial %d: transpose differs", trial)
		}
		for i := range pt.ColIdx {
			if pt.ColIdx[i] != st.ColIdx[i] {
				t.Fatalf("trial %d: transpose structure differs at %d", trial, i)
			}
		}

		perm := p.DegreePermutation()
		sperm := s.DegreePermutation()
		for i := range perm.Perm {
			if perm.Perm[i] != sperm.Perm[i] {
				t.Fatalf("trial %d: degree permutation differs at %d", trial, i)
			}
		}
		pp, sp := p.Permute(perm), s.Permute(sperm)
		if pp.NNZ() != sp.NNZ() || !bitsEq(pp.Val, sp.Val) {
			t.Fatalf("trial %d: permuted view differs", trial)
		}
		for i := range pp.ColIdx {
			if pp.ColIdx[i] != sp.ColIdx[i] {
				t.Fatalf("trial %d: permuted structure differs at %d", trial, i)
			}
		}
	}
}

// TestInstallersSeedCaches verifies Install* wires a prebuilt result into
// the lazy accessor and refuses double population.
func TestInstallersSeedCaches(t *testing.T) {
	build := func() *Matrix {
		return NewOf[float64](3, 3, []int{0, 2, 3, 4}, []int32{1, 2, 0, 0}, nil)
	}
	a, b := build(), build()
	sym, mean := b.SymNormalized(), b.MeanNormalized()
	a.InstallSymNormalized(sym)
	a.InstallMeanNormalized(mean)
	if a.SymNormalized() != sym || a.MeanNormalized() != mean {
		t.Fatal("installed caches not returned by the lazy accessors")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double InstallSymNormalized did not panic")
		}
	}()
	a.InstallSymNormalized(sym)
}

// TestCastCarriesReorderCache pins the Cast extension: when the receiver's
// degree-descending view is built, the cast result returns a cast of the
// same view (same permutation, element-wise cast values) without
// re-sorting — and it is bit-identical to re-deriving the reordering on
// the cast matrix, because Cast and Permute commute element-wise.
func TestCastCarriesReorderCache(t *testing.T) {
	defer func(n int) { ReorderMinRows = n }(ReorderMinRows)
	ReorderMinRows = 4

	rng := rand.New(rand.NewSource(11))
	n := 64
	rowPtr := make([]int, n+1)
	var colIdx []int32
	for i := 0; i < n; i++ {
		deg := rng.Intn(6)
		if i < 4 {
			deg += 10 // hubs, so the permutation is not the identity
		}
		for d := 0; d < deg; d++ {
			colIdx = append(colIdx, int32(rng.Intn(n)))
		}
		rowPtr[i+1] = len(colIdx)
	}
	m := NewOf[float64](n, n, rowPtr, colIdx, nil)
	rm, rp := m.Reordered()
	if rp == nil {
		t.Fatal("fixture should not be degree-sorted already")
	}

	c := Cast[float32](m)
	crm, crp := c.Reordered()
	if crp != rp {
		t.Fatal("cast did not share the structure-only permutation")
	}
	fresh := Cast[float32](NewOf[float64](n, n, rowPtr, colIdx, nil))
	frm, frp := fresh.Reordered()
	if frp == nil || len(frp.Perm) != len(crp.Perm) {
		t.Fatal("fresh reorder missing")
	}
	for i := range frp.Perm {
		if frp.Perm[i] != crp.Perm[i] {
			t.Fatalf("carried permutation differs from re-derived at %d", i)
		}
	}
	if crm.NNZ() != frm.NNZ() || crm.NNZ() != rm.NNZ() {
		t.Fatal("carried view nnz mismatch")
	}
	for i := range frm.ColIdx {
		if frm.ColIdx[i] != crm.ColIdx[i] {
			t.Fatalf("carried permuted structure differs at %d", i)
		}
	}
	for i := range frm.Val {
		if math.Float32bits(frm.Val[i]) != math.Float32bits(crm.Val[i]) {
			t.Fatalf("carried permuted values differ at %d", i)
		}
	}

	// Below the gate nothing is carried and Reordered degrades to (s, nil).
	ReorderMinRows = 1024
	small := Cast[float32](m)
	if sm, sp := small.Reordered(); sm != small || sp != nil {
		t.Fatal("small cast matrix should run unpermuted")
	}
}
