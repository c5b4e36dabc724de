package mattest

import (
	"math"
	"testing"
)

func TestTolWithin(t *testing.T) {
	tol := Tol{Atol: 1e-4, Rtol: 1e-2}
	cases := []struct {
		got, want float64
		ok        bool
	}{
		{1.0, 1.0, true},
		{1.0, 1.009, true}, // inside rtol
		{1.0, 1.02, false}, // outside rtol
		{1e-5, 0, true},    // inside atol near zero
		{2e-4, 0, false},   // outside atol near zero
		{math.NaN(), math.NaN(), true},
		{math.NaN(), 1, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.Inf(1), 1e300, false},
	}
	for _, c := range cases {
		if got := tol.Within(c.got, c.want); got != c.ok {
			t.Errorf("Within(%v, %v) = %v, want %v", c.got, c.want, got, c.ok)
		}
	}
}

func TestBitEqualAcceptsNaN(t *testing.T) {
	// NaN == NaN is false under float compare; the helpers must treat
	// identical NaNs as equal so divergence fixtures can round-trip.
	a, b := []float64{1, math.NaN()}, []float64{1, math.NaN()}
	BitEqualVec(t, "nan", a, b)
	f32 := []float32{float32(math.NaN())}
	BitEqualVec(t, "nan32", f32, []float32{float32(math.NaN())})
}
