package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The fused/Into kernels must be the bit-exact composition of the
// allocating primitives they replaced: the training loops switched over
// wholesale, so any reordering of the arithmetic would silently change
// model weights. Every comparison here is ==, not approximate.

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewOf[float64](rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// dirty returns a shape-matched matrix pre-filled with garbage, to prove
// an Into kernel fully overwrites its destination (the GetDirty
// contract).
func dirty(rows, cols int) *Matrix {
	m := NewOf[float64](rows, cols)
	m.Fill(math.Pi * 1e9)
	return m
}

func assertSameBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: Data[%d] = %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulIntoMatchesMatMulOnDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randMat(rng, 17, 9), randMat(rng, 9, 13)
	want := MatMul(a, b)
	got := dirty(17, 13)
	MatMulInto(got, a, b)
	assertSameBits(t, "MatMulInto", got, want)
}

func TestMatMulTransAIntoMatchesAllocatingOnDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 11, 7), randMat(rng, 11, 5)
	want := MatMulTransA(a, b)
	got := dirty(7, 5)
	MatMulTransAInto(got, a, b)
	assertSameBits(t, "MatMulTransAInto", got, want)
}

func TestMatMulTransBIntoMatchesAllocatingOnDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randMat(rng, 8, 10), randMat(rng, 6, 10)
	want := MatMulTransB(a, b)
	got := dirty(8, 6)
	MatMulTransBInto(got, a, b)
	assertSameBits(t, "MatMulTransBInto", got, want)
}

func TestAddBiasReLUIntoMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMat(rng, 6, 5)
	bias := make([]float64, 5)
	for j := range bias {
		bias[j] = rng.NormFloat64()
	}
	// Reference: AddRowVector then relu with mask, on copies.
	ref := x.Clone()
	ref.AddRowVector(bias)
	wantMask := NewOf[float64](6, 5)
	for i, v := range ref.Data {
		if v <= 0 {
			ref.Data[i] = 0
		} else {
			wantMask.Data[i] = 1
		}
	}
	got := x.Clone()
	gotMask := dirty(6, 5)
	AddBiasReLUInto(got, bias, gotMask)
	assertSameBits(t, "AddBiasReLUInto x", got, ref)
	assertSameBits(t, "AddBiasReLUInto mask", gotMask, wantMask)

	// nil mask variant applies the same activation.
	got2 := x.Clone()
	AddBiasReLUInto(got2, bias, nil)
	assertSameBits(t, "AddBiasReLUInto nil mask", got2, ref)
}

func TestReLUMaskIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randMat(rng, 7, 4)
	ref := x.Clone()
	wantMask := NewOf[float64](7, 4)
	for i, v := range ref.Data {
		if v <= 0 {
			ref.Data[i] = 0
		} else {
			wantMask.Data[i] = 1
		}
	}
	got := x.Clone()
	gotMask := dirty(7, 4)
	ReLUMaskInto(got, gotMask)
	assertSameBits(t, "ReLUMaskInto x", got, ref)
	assertSameBits(t, "ReLUMaskInto mask", gotMask, wantMask)
}

func TestInPlaceOpsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := randMat(rng, 5, 6), randMat(rng, 5, 6)
	assertSameBits(t, "HadamardInPlace", HadamardInPlace(a.Clone(), b), Hadamard(a, b))
	assertSameBits(t, "SubInPlace", SubInPlace(a.Clone(), b), Sub(a, b))
}

func TestSelectRowsIntoMatchesSelectRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMat(rng, 9, 4)
	idx := []int{3, 3, 0, 8, 5}
	got := dirty(len(idx), 4)
	SelectRowsInto(got, m, idx)
	assertSameBits(t, "SelectRowsInto", got, m.SelectRows(idx))
}

func TestCopyIntoOverwritesDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := randMat(rng, 4, 4)
	got := dirty(4, 4)
	CopyInto(got, src)
	assertSameBits(t, "CopyInto", got, src)
}

// referenceSoftmaxCE is the loop SoftmaxCrossEntropyInto replaced in the
// SAGE/GCN step functions: per-target softmax, log floor, copy-subtract-
// scale gradient.
func referenceSoftmaxCE(logits *Matrix, rows []int, labels []int) (*Matrix, float64) {
	grad := NewOf[float64](logits.Rows, logits.Cols)
	probs := make([]float64, logits.Cols)
	inv := 1 / float64(len(rows))
	loss := 0.0
	for _, r := range rows {
		Softmax(probs, logits.Row(r))
		label := labels[r]
		loss -= math.Log(probs[label] + 1e-300)
		dst := grad.Row(r)
		copy(dst, probs)
		dst[label] -= 1
		for j := range dst {
			dst[j] *= inv
		}
	}
	return grad, loss * inv
}

func TestSoftmaxCrossEntropyIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := randMat(rng, 12, 5)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = rng.Intn(5)
	}
	rows := []int{1, 4, 7, 10}
	wantGrad, wantLoss := referenceSoftmaxCE(logits, rows, labels)
	// The kernel's contract requires a zeroed grad: untargeted rows are
	// left untouched.
	grad := NewOf[float64](12, 5)
	probs := make([]float64, 5)
	loss := SoftmaxCrossEntropyInto(grad, logits, rows, labels, probs)
	if math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Fatalf("loss %v, want %v", loss, wantLoss)
	}
	assertSameBits(t, "SoftmaxCrossEntropyInto grad", grad, wantGrad)
}

func TestSoftmaxCrossEntropyIntoEmptyRows(t *testing.T) {
	logits := NewOf[float64](3, 2)
	grad := NewOf[float64](3, 2)
	if loss := SoftmaxCrossEntropyInto(grad, logits, []int{}, []int{0, 0, 0}, make([]float64, 2)); loss != 0 {
		t.Fatalf("empty target rows should yield zero loss, got %v", loss)
	}
}

func TestMatMulIntoSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(10))
	a, b := randMat(rng, 32, 32), randMat(rng, 32, 32)
	dst := NewOf[float64](32, 32)
	if allocs := testing.AllocsPerRun(50, func() { MatMulInto(dst, a, b) }); allocs != 0 {
		t.Fatalf("MatMulInto allocates %v times per call", allocs)
	}
	ta := NewOf[float64](32, 32)
	if allocs := testing.AllocsPerRun(50, func() { MatMulTransAInto(ta, a, b) }); allocs != 0 {
		t.Fatalf("MatMulTransAInto allocates %v times per call", allocs)
	}
	tb := NewOf[float64](32, 32)
	if allocs := testing.AllocsPerRun(50, func() { MatMulTransBInto(tb, a, b) }); allocs != 0 {
		t.Fatalf("MatMulTransBInto allocates %v times per call", allocs)
	}
}
