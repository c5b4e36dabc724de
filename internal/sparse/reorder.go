package sparse

import (
	"fmt"
	"sort"

	"trail/internal/mat"
)

// Cache-aware CSR reordering (DESIGN.md §3f).
//
// SpMM's memory behaviour is dominated by the gathers x.Row(ColIdx[k]):
// on a scale-free threat graph the hub vertices are referenced from
// almost every row, but under insertion order their feature rows are
// scattered across the full x matrix. A degree-descending relabelling
// packs the hubs into the first rows of x, so the rows that serve the
// overwhelming majority of gathers share a small, cache-resident prefix.
//
// The transformation is exact, not approximate: Permute preserves the
// entry order within every row, so row r of the permuted operator is
// row Perm[r] of the original with columns relabelled — the same values
// accumulated in the same order. Run any row-local kernel (SpMM, the
// normalisation constructors, SAGELayerInto) in permuted space on
// permuted inputs and row r of the result is bit-identical to row
// Perm[r] of the unpermuted result; scattering rows back through Perm
// reproduces the original-order output exactly. That is what lets
// labelprop and GNN inference adopt the reordering without disturbing
// any of the bit-identity equivalence suites.

// Permutation is a vertex relabelling: Perm[new] = old (the gather map)
// and Inv[old] = new (the scatter map). Both directions are stored
// because hot paths need gathers and scatters without re-inversion.
type Permutation struct {
	Perm []int32
	Inv  []int32
}

// NewPermutation builds a Permutation from a Perm[new] = old mapping,
// deriving the inverse. It panics if perm is not a permutation of its
// index range.
func NewPermutation(perm []int32) *Permutation {
	inv := make([]int32, len(perm))
	for i := range inv {
		inv[i] = -1
	}
	for n, o := range perm {
		if o < 0 || int(o) >= len(perm) || inv[o] != -1 {
			panic(fmt.Sprintf("sparse: NewPermutation: invalid or duplicate image %d at %d", o, n))
		}
		inv[o] = int32(n)
	}
	return &Permutation{Perm: perm, Inv: inv}
}

// Len returns the number of vertices the permutation covers.
func (p *Permutation) Len() int { return len(p.Perm) }

// IsIdentity reports whether the permutation maps every vertex to itself.
func (p *Permutation) IsIdentity() bool {
	for n, o := range p.Perm {
		if int(o) != n {
			return false
		}
	}
	return true
}

// GatherRowsInto writes src rows into dst in permuted order:
// dst.Row(new) = src.Row(Perm[new]). Used to carry original-order inputs
// (features, seed labels) into permuted space.
func GatherRowsInto[T mat.Float](p *Permutation, dst, src *mat.Dense[T]) *mat.Dense[T] {
	if dst.Rows != len(p.Perm) || src.Rows != len(p.Perm) || dst.Cols != src.Cols {
		panic(fmt.Sprintf("sparse: GatherRowsInto %dx%d from %dx%d under %d-vertex permutation",
			dst.Rows, dst.Cols, src.Rows, src.Cols, len(p.Perm)))
	}
	for n, o := range p.Perm {
		copy(dst.Row(n), src.Row(int(o)))
	}
	return dst
}

// ScatterRowsInto writes src rows back into original order:
// dst.Row(Perm[new]) = src.Row(new). Used to emit permuted-space results
// (propagated labels, logits, embeddings) in original vertex order.
func ScatterRowsInto[T mat.Float](p *Permutation, dst, src *mat.Dense[T]) *mat.Dense[T] {
	if dst.Rows != len(p.Perm) || src.Rows != len(p.Perm) || dst.Cols != src.Cols {
		panic(fmt.Sprintf("sparse: ScatterRowsInto %dx%d from %dx%d under %d-vertex permutation",
			dst.Rows, dst.Cols, src.Rows, src.Cols, len(p.Perm)))
	}
	for n, o := range p.Perm {
		copy(dst.Row(int(o)), src.Row(n))
	}
	return dst
}

// DegreePermutation returns the degree-descending relabelling of s's
// rows (ties keep their original relative order, so the result is
// deterministic). The receiver must be square.
func (s *CSR[T]) DegreePermutation() *Permutation {
	if s.Rows != s.Cols {
		panic(fmt.Sprintf("sparse: DegreePermutation on non-square %dx%d matrix", s.Rows, s.Cols))
	}
	perm := make([]int32, s.Rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	deg := func(i int32) int { return s.End(int(i)) - s.RowPtr[i] }
	sort.SliceStable(perm, func(a, b int) bool { return deg(perm[a]) > deg(perm[b]) })
	return NewPermutation(perm)
}

// Permute returns the permuted view of a square s: row new of the result
// is row Perm[new] of s with every column index relabelled through Inv.
// Entry order within each row is preserved (source order), which is what
// makes the permuted kernels bit-identical row-for-row — see the file
// comment. RowScale, if present, is carried row-wise.
func (s *CSR[T]) Permute(p *Permutation) *CSR[T] {
	if s.Rows != s.Cols {
		panic(fmt.Sprintf("sparse: Permute on non-square %dx%d matrix", s.Rows, s.Cols))
	}
	if p.Len() != s.Rows {
		panic(fmt.Sprintf("sparse: Permute with %d-vertex permutation on %d-row matrix", p.Len(), s.Rows))
	}
	n := s.Rows
	rowPtr := make([]int, n+1)
	colIdx := make([]int32, s.NNZ())
	var val []T
	if !s.valOnes {
		val = make([]T, s.NNZ())
	}
	var rowScale []T
	if s.RowScale != nil {
		rowScale = make([]T, n)
	}
	k := 0
	for r := 0; r < n; r++ {
		src := int(p.Perm[r])
		for q, e := s.RowPtr[src], s.End(src); q < e; q++ {
			colIdx[k] = p.Inv[s.ColIdx[q]]
			if val != nil {
				val[k] = s.Val[q]
			}
			k++
		}
		rowPtr[r+1] = k
		if rowScale != nil {
			rowScale[r] = s.RowScale[src]
		}
	}
	if val == nil {
		// Gathering a vector of 1s is a vector of 1s: share the pool.
		val = onesSlice[T](k)
	}
	return &CSR[T]{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val, RowScale: rowScale, valOnes: s.valOnes}
}

// ReorderMinRows gates Reordered: below this many rows the permuted view
// is never built (the gather/scatter overhead outweighs any locality win
// on graphs that already fit in cache). Tests lower it to force the
// reordered path onto small fixtures.
var ReorderMinRows = 1024

// Reordered returns the cached degree-descending permuted view of a
// square s together with its Permutation. It returns (s, nil) — meaning
// "run unpermuted" — when s is too small (ReorderMinRows), not square,
// or already degree-sorted. The view is built once per receiver and
// shared, like the normalisation caches.
func (s *CSR[T]) Reordered() (*CSR[T], *Permutation) {
	if s.Rows != s.Cols || s.Rows < ReorderMinRows {
		return s, nil
	}
	s.reordOnce.Do(func() {
		p := s.DegreePermutation()
		if p.IsIdentity() {
			s.reordM = s
		} else {
			s.reordM = s.Permute(p)
			s.reordP = p
		}
		s.reordReady.Store(true)
	})
	return s.reordM, s.reordP
}
