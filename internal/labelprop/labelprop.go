// Package labelprop implements the graph-traversal attribution method of
// §VI-B: label propagation over the symmetrically normalised adjacency
// (Zhou et al. 2003),
//
//	F_n = D^{-1/2} A D^{-1/2} F_{n-1},
//
// seeded with one-hot APT labels on the labelled event nodes. After N
// iterations, each node's row is softmax-normalised into an attribution
// probability distribution. Nodes with no path to any seed remain
// unattributed (all-zero rows) — the paper's stated limitation for events
// built from never-before-seen IOCs.
//
// Every entry point takes the adjacency as a CSR snapshot
// (graph.Graph.CSR(), or sparse.FromAdj for plain adjacency lists):
// PropagateCSR/AttributeCSR run the method once, PropagateFull and
// PropagateDirty keep the per-iteration state for incremental updates.
package labelprop

import (
	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/sparse"
)

// PropagateCSR runs `layers` iterations of Equation 1 over an unweighted
// adjacency CSR (as returned by graph.Graph.CSR()) and returns the
// accumulated mass Z = sum_n F_n (|V| x classes, before softmax).
// Accumulating over iterations keeps the method's "distance from each
// seed" semantics on bipartite regions of the TKG (event-IOC edges
// alternate sides, so a single F_N is zero at every other hop count); a
// node reached at hop h first contributes at iteration h, so LP-kL still
// only sees k-hop resource reuse. seeds maps labelled nodes to class
// indices in [0, classes).
//
// Each layer is one SpMM against the symmetrically normalised operator
// D^{-1/2} A D^{-1/2}, computed once per snapshot and cached on the CSR,
// so runs that share one snapshot share the operator.
func PropagateCSR(a *sparse.Matrix, seeds map[graph.NodeID]int, classes, layers int) *mat.Matrix {
	acc := mat.NewOf[float64](a.Rows, classes)
	PropagateCSRInto(acc, a, seeds, classes, layers)
	return acc
}

// PropagateCSRInto is PropagateCSR accumulating into a caller-owned
// dst (a.Rows × classes, overwritten), for sweeps that rerun propagation
// over one snapshot: the two iteration buffers are borrowed from the
// shared pool, so repeated calls allocate nothing.
//
// On large snapshots the iteration runs in the cache-aware
// degree-descending vertex order (sparse.CSR.Reordered): seeds are
// placed at their permuted rows, every SpMM gathers hub rows from a
// cache-resident prefix, and the accumulated mass is scattered back so
// dst is always in original vertex order. Permuting commutes bitwise
// with the symmetric normalisation and SpMM is row-local, so the result
// is bit-identical to the unpermuted iteration.
func PropagateCSRInto(dst *mat.Matrix, a *sparse.Matrix, seeds map[graph.NodeID]int, classes, layers int) {
	n := a.Rows
	if dst.Rows != n || dst.Cols != classes {
		panic("labelprop: PropagateCSRInto dst shape mismatch")
	}
	ra, perm := a.Reordered()
	s := ra.SymNormalized()
	// f must start zeroed (seeding writes only the seed entries); next is
	// fully overwritten by the first SpMM, so it can skip the memset.
	f := mat.GetBufOf[float64](n, classes)
	next := mat.GetBufDirtyOf[float64](n, classes)
	seedRow := func(id graph.NodeID) int {
		if perm != nil {
			return int(perm.Inv[id])
		}
		return int(id)
	}
	for id, c := range seeds {
		if c >= 0 && c < classes {
			f.Set(seedRow(id), c, 1)
		}
	}
	acc := dst
	if perm != nil {
		// Accumulate in permuted space, scatter once at the end.
		acc = mat.GetBufDirtyOf[float64](n, classes)
	}
	acc.Zero()
	for l := 0; l < layers; l++ {
		s.SpMMInto(next, f)
		f, next = next, f
		mat.AddInPlace(acc, f)
	}
	if perm != nil {
		sparse.ScatterRowsInto(perm, dst, acc)
		mat.PutBufOf(acc)
	}
	mat.PutBufOf(f)
	mat.PutBufOf(next)
}

// Distribution converts a propagation row into a probability
// distribution: softmax over non-zero rows, nil (unattributed) for
// all-zero rows.
func Distribution(row []float64) []float64 {
	nonzero := false
	for _, v := range row {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		return nil
	}
	out := make([]float64, len(row))
	mat.Softmax(out, row)
	return out
}

// Predict returns the argmax class for each query node, or -1 for nodes
// label propagation could not reach.
func Predict(f *mat.Matrix, queries []graph.NodeID) []int {
	out := make([]int, len(queries))
	for i, q := range queries {
		row := f.Row(int(q))
		pred := -1
		best := 0.0
		for c, v := range row {
			if v > best {
				best, pred = v, c
			}
		}
		out[i] = pred
	}
	return out
}

// AttributeCSR is the end-to-end convenience used by the experiments:
// seed with the labelled events, propagate `layers` steps over a shared
// CSR snapshot, and predict the masked events. The propagation
// accumulator is borrowed from the shared pool: only the returned slice
// is allocated.
func AttributeCSR(a *sparse.Matrix, seeds map[graph.NodeID]int, queries []graph.NodeID, classes, layers int) []int {
	f := mat.GetBufOf[float64](a.Rows, classes)
	PropagateCSRInto(f, a, seeds, classes, layers)
	out := Predict(f, queries)
	mat.PutBufOf(f)
	return out
}
