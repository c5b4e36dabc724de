package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if !almostEq(c.At(i, j), want[i][j]) {
				t.Fatalf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandNormalOf[float64](rng, 5, 7, 0, 1)
	b := RandNormalOf[float64](rng, 7, 3, 0, 1)
	direct := MatMul(a, b)
	viaTB := MatMulTransB(a, b.T())
	viaTA := MatMulTransA(a.T(), b)
	for i := range direct.Data {
		if !almostEq(direct.Data[i], viaTB.Data[i]) {
			t.Fatalf("MatMulTransB disagrees at %d: %v vs %v", i, direct.Data[i], viaTB.Data[i])
		}
		if !almostEq(direct.Data[i], viaTA.Data[i]) {
			t.Fatalf("MatMulTransA disagrees at %d: %v vs %v", i, direct.Data[i], viaTA.Data[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		m := RandNormalOf[float64](rng, rows, cols, 0, 1)
		tt := m.T().T()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		// Clamp extreme quick-generated values; softmax must stay stable.
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
			vals[i] = math.Max(-1e6, math.Min(vals[i], 1e6))
		}
		out := make([]float64, len(vals))
		Softmax(out, vals)
		sum := 0.0
		for _, p := range out {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariant(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1001, 1002, 1003}
	oa := make([]float64, 3)
	ob := make([]float64, 3)
	Softmax(oa, a)
	Softmax(ob, b)
	for i := range oa {
		if !almostEq(oa[i], ob[i]) {
			t.Fatalf("softmax not shift invariant: %v vs %v", oa, ob)
		}
	}
}

func TestL2NormalizeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandNormalOf[float64](rng, 10, 4, 0, 3)
	clear(m.Row(3)) // zero row must survive untouched
	m.L2NormalizeRows()
	for i := 0; i < m.Rows; i++ {
		n := Norm2(m.Row(i))
		if i == 3 {
			if n != 0 {
				t.Fatalf("zero row got normalised to norm %v", n)
			}
			continue
		}
		if !almostEq(n, 1) {
			t.Fatalf("row %d norm %v", i, n)
		}
	}
}

func TestArgmaxAndOneHot(t *testing.T) {
	if Argmax[float64](nil) != -1 {
		t.Fatal("Argmax(nil) != -1")
	}
	if Argmax([]float64{1, 3, 3, 2}) != 1 {
		t.Fatal("Argmax tie should resolve to first max")
	}
}

func TestStackAndSelect(t *testing.T) {
	v := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	s := v.SelectRows([]int{2, 0, 0})
	if s.Rows != 3 || s.At(0, 0) != 5 || s.At(2, 1) != 2 {
		t.Fatalf("SelectRows wrong: %+v", s)
	}
}

func TestStatsHelpers(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Mean(v), 5) {
		t.Fatalf("mean %v", Mean(v))
	}
	if !almostEq(Std(v), 2) {
		t.Fatalf("std %v", Std(v))
	}
	if !almostEq(Dot([]float64{1, 2, 3}, []float64{4, 5, 6}), 32) {
		t.Fatal("dot")
	}
}

func TestGlorotScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := GlorotUniformOf[float64](rng, 100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	maxAbs := 0.0
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("glorot value %v outside ±%v", v, limit)
		}
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	if maxAbs < limit/2 {
		t.Fatal("glorot suspiciously concentrated near zero")
	}
}
