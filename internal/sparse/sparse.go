// Package sparse implements the shared sparse message-passing engine:
// a CSR (compressed sparse row) matrix with the multiply kernels and
// normalisation constructors that label propagation (Eq. 1), the GCN
// baseline (Eq. 2) and GraphSAGE (Eq. 3) all dispatch through. Before
// this engine existed, each of those models hand-rolled its own
// aggregation loop over adjacency lists; now they build one CSR snapshot
// of the TKG and differ only in how the edge values are normalised.
//
// The element type of the value arrays is a parameter (CSR[T] with
// T = float32 | float64); Matrix is the float64 reference alias. As in
// internal/mat, the float64 instantiation is bit-identical to the
// pre-generic code, scalar row-sum reductions accumulate in float64 at
// every precision, and the per-row vector accumulation of SpMM stays in
// storage precision (it is the bandwidth the float32 path halves).
//
// # Determinism contract
//
// Entry order within a CSR row is preserved from the source adjacency
// and never re-sorted, and SpMM accumulates each output row serially in
// that order inside one par.For block. Together with par's fixed
// partitioning this makes every kernel bit-identical between serial and
// parallel runs, and bit-identical to the adjacency-list loops the
// normalisation constructors replace (verified by equivalence tests in
// labelprop and gnn). No atomics or locks ever touch float accumulation.
//
// # Cache-aware reordering
//
// Reordered returns a degree-descending permuted view of a square CSR
// together with the Permutation that maps between orderings. Because a
// permutation that preserves per-row entry order relocates rows without
// touching any accumulation chain, row r of the permuted product equals
// row Perm[r] of the original product bit for bit — so consumers
// (labelprop, GNN inference) can run entirely in permuted space for
// locality and scatter the results back into original vertex order with
// zero arithmetic difference. See DESIGN.md §3f.
//
// A Matrix is immutable once constructed: constructors that re-weight
// (SymNormalized, MeanNormalized, ...) share the structure arrays of
// their receiver and allocate fresh value arrays.
package sparse

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"trail/internal/mat"
	"trail/internal/par"
)

// CSR is a sparse matrix in compressed sparse row form. Row i's entries
// are ColIdx[RowPtr[i]:End(i)] with values Val[RowPtr[i]:End(i)].
// If RowScale is non-nil, the logical entry value is Val[k]*RowScale[i]:
// kernels accumulate the raw Val products first and multiply the
// finished row by RowScale[i], which is exactly the sum-then-scale
// arithmetic of a mean aggregator (and bit-identical to it).
//
// A packed matrix (RowEnd == nil) stores rows contiguously:
// End(i) == RowPtr[i+1]. A slack-slotted matrix (RowEnd != nil) leaves
// unused capacity between End(i) and the next row's start so that an
// incremental maintainer (graph's delta-append builder) can splice
// entries in without re-packing; every row loop in this package walks
// RowPtr[i]..End(i) and never reads the slack slots, so kernels are
// bit-identical between a slacked view and its packed equivalent.
type CSR[T mat.Float] struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int32
	Val        []T
	RowScale   []T
	// RowEnd, when non-nil, is the exclusive end offset of each row's
	// live entries (slack-slotted storage, see type comment). Slacked
	// matrices are transient views owned by their builder; everything
	// this package constructs from one (normalised variants, transposes,
	// permuted views) is packed.
	RowEnd []int
	// nnz caches the live entry count for slacked matrices, where
	// RowPtr[Rows] covers the slots rather than the entries.
	nnz int
	// valOnes records that Val is all ones by construction (a nil val
	// argument — an unweighted adjacency). Cast and Permute use it to
	// serve the result's values from the shared ones pool instead of
	// copying; see ones.go.
	valOnes bool

	tOnce sync.Once
	t     *CSR[T] // cached transpose, built on first SpMMTransInto/MulTrans

	// Normalisation caches: matrices are immutable once constructed and
	// the normalised variants are pure functions of the receiver, so the
	// repeated-evaluation loops (label-propagation folds, per-epoch GNN
	// operators) can share one result instead of re-deriving value
	// arrays on every call. Install* seeds a cache with a prebuilt,
	// provably-identical result (the incremental CSR maintainer does
	// this so snapshot publication skips the re-derivation entirely).
	symOnce, loopOnce, meanOnce sync.Once
	symN, loopN, meanN          *CSR[T]
	// meanReady lets Cast carry the mean cache (all-ones float64
	// receivers only — see Cast) without firing the Once.
	meanReady atomic.Bool

	// Reordering cache: the degree-descending permuted view and its
	// permutation, built on first Reordered call (or installed).
	// reordReady lets Cast carry the cache without firing the Once.
	reordOnce  sync.Once
	reordReady atomic.Bool
	reordM     *CSR[T]
	reordP     *Permutation
}

// Matrix is the float64 reference instantiation of CSR.
type Matrix = CSR[float64]

// NewOf wraps raw CSR arrays without copying; the caller must not mutate
// them afterwards. A nil val means all entries are 1 (an unweighted
// adjacency) and is materialised as ones.
func NewOf[T mat.Float](rows, cols int, rowPtr []int, colIdx []int32, val []T) *CSR[T] {
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("sparse: RowPtr length %d != rows+1 (%d)", len(rowPtr), rows+1))
	}
	nnz := rowPtr[rows]
	if len(colIdx) != nnz {
		panic(fmt.Sprintf("sparse: ColIdx length %d != nnz %d", len(colIdx), nnz))
	}
	ones := val == nil
	if ones {
		val = onesSlice[T](nnz)
	} else if len(val) != nnz {
		panic(fmt.Sprintf("sparse: Val length %d != nnz %d", len(val), nnz))
	}
	return &CSR[T]{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val, valOnes: ones}
}

// FromAdj builds an unweighted square CSR from adjacency lists, one row
// per node, preserving each list's neighbour order. It accepts any
// int32-backed node ID type (graph.NodeID in this repository).
func FromAdj[T ~int32](adj [][]T) *Matrix {
	n := len(adj)
	rowPtr := make([]int, n+1)
	for i, ns := range adj {
		rowPtr[i+1] = rowPtr[i] + len(ns)
	}
	colIdx := make([]int32, rowPtr[n])
	k := 0
	for _, ns := range adj {
		for _, v := range ns {
			colIdx[k] = int32(v)
			k++
		}
	}
	return NewOf[float64](n, n, rowPtr, colIdx, nil)
}

// NewSlackedOf wraps slack-slotted CSR arrays without copying: row i's
// live entries are colIdx[rowPtr[i]:rowEnd[i]], the slots beyond rowEnd[i]
// are uninitialised slack, and nnz is the total live entry count. The
// view shares its arrays with the caller (typically an incremental
// builder) and is only valid until the builder's next mutation; every
// kernel and constructor in this package walks live entries only, so
// results are bit-identical to the packed equivalent.
func NewSlackedOf[T mat.Float](rows, cols int, rowPtr, rowEnd []int, colIdx []int32, val []T, nnz int) *CSR[T] {
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("sparse: RowPtr length %d != rows+1 (%d)", len(rowPtr), rows+1))
	}
	if len(rowEnd) != rows {
		panic(fmt.Sprintf("sparse: RowEnd length %d != rows (%d)", len(rowEnd), rows))
	}
	if len(val) != len(colIdx) {
		panic(fmt.Sprintf("sparse: Val length %d != ColIdx length %d", len(val), len(colIdx)))
	}
	return &CSR[T]{Rows: rows, Cols: cols, RowPtr: rowPtr, RowEnd: rowEnd, ColIdx: colIdx, Val: val, nnz: nnz}
}

// End returns the exclusive end offset of row i's live entries:
// RowPtr[i+1] for packed matrices, RowEnd[i] for slack-slotted ones.
// Row loops pair it with RowPtr[i].
func (s *CSR[T]) End(i int) int {
	if s.RowEnd != nil {
		return s.RowEnd[i]
	}
	return s.RowPtr[i+1]
}

// Slacked reports whether the matrix uses slack-slotted row storage
// (a transient builder view) rather than packed contiguous rows.
func (s *CSR[T]) Slacked() bool { return s.RowEnd != nil }

// InstallSymNormalized seeds the SymNormalized cache with a prebuilt
// result. The caller guarantees m is bit-identical to what a lazy
// SymNormalized call would construct (the incremental CSR builder's
// contract, pinned by graph's patch fuzz harness). It panics if the
// cache was already populated — install immediately after construction.
func (s *CSR[T]) InstallSymNormalized(m *CSR[T]) {
	installed := false
	s.symOnce.Do(func() { s.symN = m; installed = true })
	if !installed {
		panic("sparse: InstallSymNormalized after the cache was built")
	}
}

// InstallMeanNormalized seeds the MeanNormalized cache; same contract as
// InstallSymNormalized.
func (s *CSR[T]) InstallMeanNormalized(m *CSR[T]) {
	installed := false
	s.meanOnce.Do(func() { s.meanN = m; s.meanReady.Store(true); installed = true })
	if !installed {
		panic("sparse: InstallMeanNormalized after the cache was built")
	}
}

// InstallReordered seeds the Reordered cache with a prebuilt permuted
// view and its permutation (p == nil with m == s means "already
// degree-sorted, run unpermuted" — the same encoding the lazy path
// caches). Same contract as InstallSymNormalized.
func (s *CSR[T]) InstallReordered(m *CSR[T], p *Permutation) {
	installed := false
	s.reordOnce.Do(func() {
		s.reordM, s.reordP = m, p
		s.reordReady.Store(true)
		installed = true
	})
	if !installed {
		panic("sparse: InstallReordered after the cache was built")
	}
}

// Cast returns s converted to element type T. When s is already a
// *CSR[T] it is returned unchanged; otherwise the structure arrays
// (RowPtr, RowEnd, ColIdx) are shared and fresh value arrays are rounded
// element-wise. The reordering cache, when built, is carried over (the
// permutation is structure-only, and Cast and Permute commute
// element-wise, so the carried view is bit-identical to re-deriving it);
// the normalisation caches are not — their values do not commute with
// rounding in general — so convert before normalising, or re-normalise
// after.
func Cast[T, U mat.Float](s *CSR[U]) *CSR[T] {
	if m, ok := any(s).(*CSR[T]); ok {
		return m
	}
	var val []T
	if s.valOnes {
		// Converting a vector of 1s is a vector of 1s at any element
		// type — serve it from the shared pool instead of copying.
		val = onesSlice[T](len(s.Val))
	} else {
		val = make([]T, len(s.Val))
		for i, v := range s.Val {
			val[i] = T(v)
		}
	}
	var scale []T
	if s.RowScale != nil {
		scale = make([]T, len(s.RowScale))
		for i, v := range s.RowScale {
			scale[i] = T(v)
		}
	}
	out := &CSR[T]{Rows: s.Rows, Cols: s.Cols, RowPtr: s.RowPtr, RowEnd: s.RowEnd, ColIdx: s.ColIdx, Val: val, RowScale: scale, nnz: s.nnz, valOnes: s.valOnes}
	if s.reordReady.Load() && out.Rows == out.Cols && out.Rows >= ReorderMinRows {
		if s.reordM == s {
			// Already degree-sorted: the cached encoding is (self, nil).
			out.InstallReordered(out, nil)
		} else {
			out.InstallReordered(Cast[T](s.reordM), s.reordP)
		}
	}
	if _, src64 := any(U(0)).(float64); src64 && s.valOnes && s.meanReady.Load() {
		// Mean carry, narrowing from float64 only: an all-ones row sums
		// to the exact integer d in both precisions, the float64 scale is
		// 1/float64(d), and the lazy T kernel computes T(1/sum) with a
		// float64 sum — i.e. T(1/float64(d)), exactly the converted
		// float64 scale. Widening would double-round (T(1/float64(d))
		// re-divided at higher precision differs), so it stays lazy.
		ms := make([]T, len(s.meanN.RowScale))
		for i, v := range s.meanN.RowScale {
			ms[i] = T(v)
		}
		out.InstallMeanNormalized(out.WithValues(nil, ms))
	}
	return out
}

// NNZ returns the number of live entries.
func (s *CSR[T]) NNZ() int {
	if s.RowEnd != nil {
		return s.nnz
	}
	return s.RowPtr[s.Rows]
}

// Degrees returns the number of stored entries per row (the node degree
// for an adjacency CSR).
func (s *CSR[T]) Degrees() []int {
	out := make([]int, s.Rows)
	for i := range out {
		out[i] = s.End(i) - s.RowPtr[i]
	}
	return out
}

// RowSums returns the per-row sums of the logical entry values
// (Val*RowScale), accumulated in float64. For an unweighted adjacency
// this is the degree.
func (s *CSR[T]) RowSums() []float64 {
	out := make([]float64, s.Rows)
	for i := 0; i < s.Rows; i++ {
		sum := 0.0
		for k, e := s.RowPtr[i], s.End(i); k < e; k++ {
			sum += float64(s.Val[k])
		}
		if s.RowScale != nil {
			sum *= float64(s.RowScale[i])
		}
		out[i] = sum
	}
	return out
}

// WithValues returns a matrix sharing s's structure with the given raw
// entry values and optional row scales (either may be nil: nil val keeps
// s's values, nil rowScale means none). Used by callers that re-weight a
// fixed edge structure — e.g. the GNN explainer's learned edge mask.
func (s *CSR[T]) WithValues(val, rowScale []T) *CSR[T] {
	ones := false
	if val == nil {
		val = s.Val
		ones = s.valOnes
	} else if s.RowEnd != nil {
		panic("sparse: WithValues with fresh values on a slack-slotted matrix")
	} else if len(val) != s.NNZ() {
		panic(fmt.Sprintf("sparse: WithValues length %d != nnz %d", len(val), s.NNZ()))
	}
	if rowScale != nil && len(rowScale) != s.Rows {
		panic(fmt.Sprintf("sparse: WithValues rowScale length %d != rows %d", len(rowScale), s.Rows))
	}
	return &CSR[T]{Rows: s.Rows, Cols: s.Cols, RowPtr: s.RowPtr, RowEnd: s.RowEnd, ColIdx: s.ColIdx, Val: val, RowScale: rowScale, nnz: s.nnz, valOnes: ones}
}

// SymNormalized returns D^{-1/2} S D^{-1/2}: entry (i,j) becomes
// Val * (1/sqrt(rowsum_i) * 1/sqrt(rowsum_j)), the label-propagation
// operator of Eq. 1 (Zhou et al. 2003). Rows with zero sum keep zero
// weight. The receiver must be square and must not use RowScale. The
// result is computed once per receiver and shared by later calls (it is
// immutable, like every constructed Matrix).
func (s *CSR[T]) SymNormalized() *CSR[T] {
	s.mustSquarePlain("SymNormalized")
	s.symOnce.Do(func() {
		invSqrt := s.invSqrtRowSums(0)
		// Slacked receivers share the slotted buffer shape so the result
		// stays a zero-copy view over the same structure (slack slots stay
		// zero and are never read); packed receivers get the packed array
		// this always built.
		val := make([]T, len(s.ColIdx))
		for i := 0; i < s.Rows; i++ {
			for k, e := s.RowPtr[i], s.End(i); k < e; k++ {
				val[k] = T(float64(s.Val[k]) * (invSqrt[i] * invSqrt[int(s.ColIdx[k])]))
			}
		}
		s.symN = &CSR[T]{Rows: s.Rows, Cols: s.Cols, RowPtr: s.RowPtr, RowEnd: s.RowEnd, ColIdx: s.ColIdx, Val: val, nnz: s.nnz}
	})
	return s.symN
}

// SymNormalizedWithSelfLoops returns the GCN operator of Eq. 2,
// D̃^{-1/2} (S+I) D̃^{-1/2} with D̃ = rowsum+1: a new CSR whose rows hold
// the self-loop entry first (weight 1/(rowsum_i+1) on the diagonal via
// the product form) followed by the original entries in source order —
// the same accumulation order as the loop nest it replaced. The receiver
// must be square, must not use RowScale, and must not already contain
// diagonal entries.
func (s *CSR[T]) SymNormalizedWithSelfLoops() *CSR[T] {
	s.mustSquarePlain("SymNormalizedWithSelfLoops")
	s.loopOnce.Do(func() {
		invSqrt := s.invSqrtRowSums(1)
		n := s.Rows
		rowPtr := make([]int, n+1)
		colIdx := make([]int32, s.NNZ()+n)
		val := make([]T, s.NNZ()+n)
		k := 0
		for i := 0; i < n; i++ {
			rowPtr[i] = k
			colIdx[k] = int32(i)
			val[k] = T(invSqrt[i] * invSqrt[i])
			k++
			for p, e := s.RowPtr[i], s.End(i); p < e; p++ {
				j := s.ColIdx[p]
				if int(j) == i {
					panic("sparse: SymNormalizedWithSelfLoops on matrix with existing diagonal entries")
				}
				colIdx[k] = j
				val[k] = T(float64(s.Val[p]) * (invSqrt[i] * invSqrt[j]))
				k++
			}
		}
		rowPtr[n] = k
		s.loopN = &CSR[T]{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	})
	if s.loopN == nil {
		panic("sparse: SymNormalizedWithSelfLoops on matrix with existing diagonal entries")
	}
	return s.loopN
}

// MeanNormalized returns the mean aggregator of Eq. 3: row i averages
// the rows its entries point at. It shares the receiver's structure and
// values and sets RowScale = 1/rowsum (0 for empty rows), so SpMM sums
// first and scales once per row — bit-identical to the sum-then-divide
// aggregation loop it replaced. The receiver must not use RowScale.
func (s *CSR[T]) MeanNormalized() *CSR[T] {
	if s.RowScale != nil {
		panic("sparse: MeanNormalized on already row-scaled matrix")
	}
	s.meanOnce.Do(func() {
		scale := make([]T, s.Rows)
		for i := 0; i < s.Rows; i++ {
			sum := 0.0
			for k, e := s.RowPtr[i], s.End(i); k < e; k++ {
				sum += float64(s.Val[k])
			}
			if sum > 0 {
				scale[i] = T(1 / sum)
			}
		}
		s.meanN = &CSR[T]{Rows: s.Rows, Cols: s.Cols, RowPtr: s.RowPtr, RowEnd: s.RowEnd, ColIdx: s.ColIdx, Val: s.Val, RowScale: scale, nnz: s.nnz}
		s.meanReady.Store(true)
	})
	return s.meanN
}

// invSqrtRowSums returns 1/sqrt(rowsum+shift) per row (0 for rows whose
// shifted sum is 0), accumulated in float64.
func (s *CSR[T]) invSqrtRowSums(shift float64) []float64 {
	out := make([]float64, s.Rows)
	for i := 0; i < s.Rows; i++ {
		sum := shift
		for k, e := s.RowPtr[i], s.End(i); k < e; k++ {
			sum += float64(s.Val[k])
		}
		if sum > 0 {
			out[i] = 1 / math.Sqrt(sum)
		}
	}
	return out
}

func (s *CSR[T]) mustSquarePlain(op string) {
	if s.Rows != s.Cols {
		panic(fmt.Sprintf("sparse: %s on non-square %dx%d matrix", op, s.Rows, s.Cols))
	}
	if s.RowScale != nil {
		panic(fmt.Sprintf("sparse: %s on row-scaled matrix", op))
	}
}

// Transpose returns sᵀ with RowScale folded into the entry values.
// Within each transposed row, entries appear in ascending source-row
// order — the order a row-major scatter loop would have visited them, so
// transpose-SpMM reproduces the hand-rolled backward scatters bit for
// bit. The result is cached by SpMMTransInto/MulTrans; calling Transpose
// directly always builds a fresh matrix.
func (s *CSR[T]) Transpose() *CSR[T] {
	nnz := s.NNZ()
	rowPtr := make([]int, s.Cols+1)
	for i := 0; i < s.Rows; i++ {
		for k, e := s.RowPtr[i], s.End(i); k < e; k++ {
			rowPtr[s.ColIdx[k]+1]++
		}
	}
	for i := 0; i < s.Cols; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, nnz)
	val := make([]T, nnz)
	cursor := make([]int, s.Cols)
	copy(cursor, rowPtr[:s.Cols])
	for i := 0; i < s.Rows; i++ {
		var scale T = 1
		if s.RowScale != nil {
			scale = s.RowScale[i]
		}
		for k, e := s.RowPtr[i], s.End(i); k < e; k++ {
			j := s.ColIdx[k]
			c := cursor[j]
			colIdx[c] = int32(i)
			if s.RowScale != nil {
				val[c] = s.Val[k] * scale
			} else {
				val[c] = s.Val[k]
			}
			cursor[j] = c + 1
		}
	}
	return &CSR[T]{Rows: s.Cols, Cols: s.Rows, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// transposed returns the cached transpose, building it on first use.
// Safe for concurrent callers.
func (s *CSR[T]) transposed() *CSR[T] {
	s.tOnce.Do(func() { s.t = s.Transpose() })
	return s.t
}

// spmm kernel thresholds, matching the dense kernels in mat: below
// minParFlops total work the kernel runs serially (goroutine handoff
// costs more than it saves on eval-sized matrices); above it, blocks of
// roughly grainFlops are handed to the par pool.
const (
	minParFlops = 1 << 16
	grainFlops  = 1 << 14
)

// SpMMInto computes dst = s·x, overwriting dst. dst must be s.Rows ×
// x.Cols with x s.Cols rows, and must not alias x. Each output row
// accumulates its entries in CSR order, then applies RowScale, so
// results are bit-identical at any parallelism level.
func (s *CSR[T]) SpMMInto(dst, x *mat.Dense[T]) {
	if s.Cols != x.Rows || dst.Rows != s.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: SpMM %dx%d = %dx%d * %dx%d",
			dst.Rows, dst.Cols, s.Rows, s.Cols, x.Rows, x.Cols))
	}
	if dst == x || (len(dst.Data) > 0 && len(x.Data) > 0 && &dst.Data[0] == &x.Data[0]) {
		panic("sparse: SpMM dst must not alias x")
	}
	// The block body lives on a pooled carrier (see sargs) so repeated
	// calls allocate nothing.
	j := getSargs(s, dst, x)
	work := (s.NNZ() + s.Rows) * x.Cols
	if work < minParFlops {
		j.spmm(0, s.Rows)
	} else {
		perRow := work/s.Rows + 1
		grain := grainFlops / perRow
		if grain < 1 {
			grain = 1
		}
		par.For(s.Rows, grain, j.spmmBody)
	}
	j.put()
}

// SpMMTransInto computes dst = sᵀ·x, overwriting dst, via a transpose
// CSR that is built once per matrix and cached. dst must be s.Cols ×
// x.Cols with x s.Rows rows.
func (s *CSR[T]) SpMMTransInto(dst, x *mat.Dense[T]) {
	s.transposed().SpMMInto(dst, x)
}

// Mul returns s·x as a fresh matrix.
func (s *CSR[T]) Mul(x *mat.Dense[T]) *mat.Dense[T] {
	dst := mat.NewOf[T](s.Rows, x.Cols)
	s.SpMMInto(dst, x)
	return dst
}

// MulTrans returns sᵀ·x as a fresh matrix.
func (s *CSR[T]) MulTrans(x *mat.Dense[T]) *mat.Dense[T] {
	dst := mat.NewOf[T](s.Cols, x.Cols)
	s.SpMMTransInto(dst, x)
	return dst
}
