package sparse

import (
	"fmt"
	"sync"

	"trail/internal/mat"
	"trail/internal/par"
)

// SAGELayerInto is the fused GraphSAGE layer kernel: for every node i it
// computes, in one pass and without materialising the n×d neighbour-mean
// matrix,
//
//	dst[i] = mean_{j∈N(i)}(x[j]) · wMean + bias + x[i] · wSelf,
//
// where the mean is the receiver's normalisation (typically a
// MeanNormalized CSR, i.e. normalise + aggregate fused through RowScale).
// This is the inference path of gnn.Model: training keeps the composed
// kernels because backprop needs the aggregated activations.
//
// Bit-identity: per row, the neighbour aggregation runs in CSR entry
// order then scales (exactly SpMMInto); the two matmul accumulations run
// in ascending-k order with the same zero-skip as MatMulInto, each from
// a zeroed accumulator; bias is added between them. That is the exact
// grouping of the composed path
//
//	z := MatMul(s.Mul(x), wMean); z.AddRowVector(bias); AddInPlace(z, MatMul(x, wSelf))
//
// so fused and composed results match bit for bit at any parallelism
// (asserted in fused_test.go and internal/gnn's equivalence tests).
//
// dst must be s.Rows × wMean.Cols and must not alias x. The receiver
// must be square with s.Rows == x.Rows; wMean and wSelf are
// x.Cols × dst.Cols; bias has length dst.Cols.
func (s *CSR[T]) SAGELayerInto(dst, x, wMean, wSelf *mat.Dense[T], bias []T) {
	if s.Rows != s.Cols || s.Cols != x.Rows {
		panic(fmt.Sprintf("sparse: SAGELayerInto operator %dx%d over %d-row features", s.Rows, s.Cols, x.Rows))
	}
	if wMean.Rows != x.Cols || wSelf.Rows != x.Cols || wMean.Cols != wSelf.Cols {
		panic(fmt.Sprintf("sparse: SAGELayerInto weights (%dx%d, %dx%d) for width-%d features",
			wMean.Rows, wMean.Cols, wSelf.Rows, wSelf.Cols, x.Cols))
	}
	if dst.Rows != s.Rows || dst.Cols != wMean.Cols {
		panic(fmt.Sprintf("sparse: SAGELayerInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, s.Rows, wMean.Cols))
	}
	if len(bias) != dst.Cols {
		panic(fmt.Sprintf("sparse: SAGELayerInto bias length %d != %d", len(bias), dst.Cols))
	}
	if dst == x || (len(dst.Data) > 0 && len(x.Data) > 0 && &dst.Data[0] == &x.Data[0]) {
		panic("sparse: SAGELayerInto dst must not alias x")
	}
	din, dout := x.Cols, dst.Cols
	body := func(lo, hi int) {
		// Per-block scratch: one mean row (din) and one self-path
		// accumulator row (dout), pooled so steady-state runs allocation
		// free.
		scr, scrPool := getScratch[T]()
		meanrow := scr.grow(din + dout)
		srow := meanrow[din : din+dout]
		meanrow = meanrow[:din]
		for i := lo; i < hi; i++ {
			// Normalise + aggregate (the SpMMInto row body).
			clear(meanrow)
			for k, e := s.RowPtr[i], s.End(i); k < e; k++ {
				mat.Axpy(s.Val[k], x.Row(int(s.ColIdx[k])), meanrow)
			}
			if s.RowScale != nil {
				if sc := s.RowScale[i]; sc != 1 {
					for j := range meanrow {
						meanrow[j] *= sc
					}
				}
			}
			// meanrow · wMean (ikj with zero-skip, like MatMulInto).
			drow := dst.Row(i)
			clear(drow)
			for k, mv := range meanrow {
				if mv == 0 {
					continue
				}
				mat.Axpy(mv, wMean.Row(k), drow)
			}
			for j, b := range bias {
				drow[j] += b
			}
			// Self path from its own zeroed accumulator, then one add —
			// the same grouping as computing MatMul(x, wSelf) separately
			// and AddInPlace-ing it.
			clear(srow)
			xrow := x.Row(i)
			for k, xv := range xrow {
				if xv == 0 {
					continue
				}
				mat.Axpy(xv, wSelf.Row(k), srow)
			}
			for j, v := range srow {
				drow[j] += v
			}
		}
		if scrPool != nil {
			scrPool.Put(scr)
		}
	}
	work := (s.NNZ() + s.Rows) * din * dout
	if work < minParFlops {
		body(0, s.Rows)
		return
	}
	perRow := work/s.Rows + 1
	grain := grainFlops / perRow
	if grain < 1 {
		grain = 1
	}
	par.For(s.Rows, grain, body)
}

// scratch is a grow-only buffer recycled across kernel blocks, one pool
// per concrete element type.
type scratch[T mat.Float] struct{ buf []T }

func (s *scratch[T]) grow(n int) []T {
	if cap(s.buf) < n {
		s.buf = make([]T, n)
	}
	return s.buf[:n]
}

var (
	scratchPool64 = sync.Pool{New: func() any { return &scratch[float64]{} }}
	scratchPool32 = sync.Pool{New: func() any { return &scratch[float32]{} }}
)

// getScratch borrows a scratch buffer and reports the pool to return it
// to (nil for exotic element types, which allocate fresh).
func getScratch[T mat.Float]() (*scratch[T], *sync.Pool) {
	switch any(T(0)).(type) {
	case float64:
		return scratchPool64.Get().(*scratch[T]), &scratchPool64
	case float32:
		return scratchPool32.Get().(*scratch[T]), &scratchPool32
	}
	return &scratch[T]{}, nil
}
