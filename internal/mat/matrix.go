// Package mat provides the dense linear algebra primitives used by the
// machine-learning substrates in this repository: row-major matrices,
// element-wise kernels, matrix products, and the handful of reductions
// (softmax, argmax, norms) that the neural network, GNN and
// label-propagation code need.
//
// # Precision as a type parameter
//
// Every kernel is generic over the element type (Float = float32 |
// float64): Dense[T] is the storage type, and Matrix is the float64 alias
// the non-generic packages read. float64 remains the
// reference precision — the float64 instantiation of every generic
// kernel is arithmetically identical, bit for bit, to the pre-generic
// float64 code it replaced. The float32 instantiation halves the working
// set of the bandwidth-bound hot paths (SpMM, matmul) and is pinned
// within tolerance of the float64 reference by the equivalence suites in
// internal/gnn.
//
// Scalar reduction chains (Dot, Norm2, Sum, softmax denominators) always
// accumulate in float64 regardless of the storage type: a float64
// accumulator costs no memory bandwidth, and it keeps the float32 path
// close enough to the reference for tolerance-based equivalence. Vector
// accumulators (matmul and SpMM output rows) stay in storage precision —
// they are exactly the buffers whose bandwidth the float32 path exists
// to halve.
//
// The package is deliberately small and allocation-conscious rather than
// a general BLAS: every routine the higher layers need is here, and
// nothing else. All matrices are dense and row-major; a Dense value is
// cheap to copy (it shares the backing slice) in the same way a Go slice
// is.
package mat

import (
	"fmt"

	"trail/internal/par"
)

// Float is the element-type constraint of the numeric core: matrices,
// CSR values and model weights are generic over it.
type Float interface {
	~float32 | ~float64
}

// The hot kernels (MatMulInto, MatMulTransA, MatMulTransB,
// L2NormalizeRows, Apply) run their row loops through par.For above a
// work threshold and serially below it, so small eval-sized matrices
// never pay goroutine handoff. Blocks partition output rows, each row is
// accumulated in the same order as the serial loop, and no floats are
// shared across blocks — results are bit-identical at any parallelism
// (see internal/par's determinism contract and the tests in
// par_equiv_test.go).
const (
	// minParFlops is the total-work floor below which kernels stay serial.
	minParFlops = 1 << 16
	// grainFlops is the approximate per-block work handed to the pool.
	grainFlops = 1 << 14
)

// parRows runs fn over [0, n) output rows, parallelising only when the
// total work n*perRow crosses minParFlops.
func parRows(n, perRow int, fn func(lo, hi int)) {
	if perRow < 1 {
		perRow = 1
	}
	if n*perRow < minParFlops {
		fn(0, n)
		return
	}
	grain := grainFlops / perRow
	if grain < 1 {
		grain = 1
	}
	par.For(n, grain, fn)
}

// Dense is a dense, row-major matrix of T values. The zero value is an
// empty 0x0 matrix. Dense values share backing storage when copied; use
// Clone for a deep copy.
type Dense[T Float] struct {
	Rows, Cols int
	Data       []T // len == Rows*Cols, row-major
}

// Matrix is the float64 reference instantiation — the storage type of
// every path that predates the precision-parametric core, and the
// arithmetic reference the float32 path is pinned against.
type Matrix = Dense[float64]

// NewOf returns a zeroed rows x cols matrix of the given element type.
func NewOf[T Float](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewOf[float64](0, 0)
	}
	cols := len(rows[0])
	m := NewOf[float64](len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: ragged row %d: got %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Cast returns src converted to element type T. When src is already a
// *Dense[T] it is returned unchanged (no copy), so the float64 reference
// path pays nothing; a cross-precision cast allocates a fresh matrix and
// rounds element-wise.
func Cast[T, U Float](src *Dense[U]) *Dense[T] {
	if m, ok := any(src).(*Dense[T]); ok {
		return m
	}
	out := NewOf[T](src.Rows, src.Cols)
	for i, v := range src.Data {
		out.Data[i] = T(v)
	}
	return out
}

// At returns the element at row i, column j.
func (m *Dense[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense[T]) Clone() *Dense[T] {
	out := NewOf[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0 in place.
func (m *Dense[T]) Zero() {
	clear(m.Data)
}

// Fill sets every element to v in place.
func (m *Dense[T]) Fill(v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose of m as a new matrix.
func (m *Dense[T]) T() *Dense[T] {
	out := NewOf[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// MatMul returns a*b. Panics if the inner dimensions disagree.
func MatMul[T Float](a, b *Dense[T]) *Dense[T] {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewOf[T](a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a*b, reusing dst's storage. dst must be
// a.Rows x b.Cols and must not alias a or b.
func MatMulInto[T Float](dst, a, b *Dense[T]) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulInto %dx%d = %dx%d * %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// ikj loop order: streams through b and dst rows sequentially, which is
	// substantially faster than the naive ijk order for row-major data.
	// The block body lives on a pooled carrier (see kargs) so repeated
	// calls allocate nothing.
	k := getKargs(dst, a, b)
	perRow := a.Cols * b.Cols
	if len(b.Data) >= matmulTileMinElems && a.Rows > 1 && a.Rows*perRow >= minParFlops {
		// Cache-blocked dispatch: the flop-based grain would hand each
		// block a single row here, which leaves the k-tiled body (see
		// runMatMul) nothing to reuse its b tile across. Give every block
		// at least matmulTileMinRows rows instead — per-row results are
		// independent, so the coarser partition changes no bits.
		grain := grainFlops / perRow
		if grain < matmulTileMinRows {
			grain = matmulTileMinRows
		}
		par.For(a.Rows, grain, k.mm)
	} else {
		parRows(a.Rows, perRow, k.mm)
	}
	k.put()
}

// MatMulTransB returns a * bᵀ without materialising the transpose.
func MatMulTransB[T Float](a, b *Dense[T]) *Dense[T] {
	out := NewOf[T](a.Rows, b.Rows)
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto computes dst = a * bᵀ without materialising the
// transpose, reusing dst's storage. dst must be a.Rows x b.Rows and must
// not alias a or b.
func MatMulTransBInto[T Float](dst, a, b *Dense[T]) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulTransBInto %dx%d = %dx%d * (%dx%d)T",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k := getKargs(dst, a, b)
	parRows(a.Rows, b.Rows*b.Cols, k.tb)
	k.put()
}

// MatMulTransA returns aᵀ * b without materialising the transpose.
func MatMulTransA[T Float](a, b *Dense[T]) *Dense[T] {
	out := NewOf[T](a.Cols, b.Cols)
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto computes dst = aᵀ * b without materialising the
// transpose, reusing dst's storage (any prior contents are overwritten).
// dst must be a.Cols x b.Cols and must not alias a or b.
func MatMulTransAInto[T Float](dst, a, b *Dense[T]) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulTransAInto %dx%d = (%dx%d)T * %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// Blocks own output rows i (columns of a); the k-accumulation order
	// per output element matches the serial loop exactly.
	k := getKargs(dst, a, b)
	parRows(a.Cols, a.Rows*b.Cols, k.ta)
	k.put()
}

// AddInPlace adds b into a element-wise and returns a.
func AddInPlace[T Float](a, b *Dense[T]) *Dense[T] {
	checkSameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
	return a
}

// Sub returns a-b element-wise.
func Sub[T Float](a, b *Dense[T]) *Dense[T] {
	checkSameShape("Sub", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Hadamard returns the element-wise product a⊙b.
func Hadamard[T Float](a, b *Dense[T]) *Dense[T] {
	checkSameShape("Hadamard", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Dense[T]) Scale(s T) *Dense[T] {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddRowVector adds vector v to every row of m in place and returns m.
// len(v) must equal m.Cols.
func (m *Dense[T]) AddRowVector(v []T) *Dense[T] {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector length %d != %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range v {
			row[j] += x
		}
	}
	return m
}

// ColSums returns the per-column sums of m.
func (m *Dense[T]) ColSums() []T {
	out := make([]T, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out[j] += v
		}
	}
	return out
}

// ColMeans returns the per-column means of m. A 0-row matrix yields zeros.
func (m *Dense[T]) ColMeans() []T {
	out := m.ColSums()
	if m.Rows == 0 {
		return out
	}
	inv := 1.0 / float64(m.Rows)
	for j := range out {
		out[j] = T(float64(out[j]) * inv)
	}
	return out
}

// L2NormalizeRows rescales each row to unit L2 norm in place and returns m.
// Zero rows are left untouched. The norm accumulates in float64 (see the
// package comment); the per-element rescale happens in storage precision.
func (m *Dense[T]) L2NormalizeRows() *Dense[T] {
	parRows(m.Rows, 2*m.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			n := Norm2(row)
			if n > 0 {
				inv := T(1 / n)
				for j := range row {
					row[j] *= inv
				}
			}
		}
	})
	return m
}

// SelectRows returns a new matrix consisting of the given rows of m, in
// order. Indices may repeat.
func (m *Dense[T]) SelectRows(idx []int) *Dense[T] {
	out := NewOf[T](len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

func checkSameShape[T Float](op string, a, b *Dense[T]) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
