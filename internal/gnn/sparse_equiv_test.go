package gnn

import (
	"math"
	"math/rand"
	"testing"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/mat/mattest"
	"trail/internal/par"
	"trail/internal/sparse"
)

// The reference implementations below are the pre-refactor aggregation
// loops, kept verbatim so the shared CSR kernels can be checked for
// bit-identical output (same floating-point operation order, not just
// approximate equality).

func referenceGCNNorm(adj [][]graph.NodeID) []float64 {
	norm := make([]float64, len(adj))
	for v := range adj {
		norm[v] = 1 / math.Sqrt(float64(len(adj[v])+1))
	}
	return norm
}

func referenceGCNProp(adj [][]graph.NodeID, norm []float64, h *mat.Matrix) *mat.Matrix {
	out := mat.New(h.Rows, h.Cols)
	for v := range adj {
		dst := out.Row(v)
		// Self loop.
		mat.Axpy(norm[v]*norm[v], h.Row(v), dst)
		for _, n := range adj[v] {
			mat.Axpy(norm[v]*norm[int(n)], h.Row(int(n)), dst)
		}
	}
	return out
}

func referenceNeighborMean(adj [][]graph.NodeID, h *mat.Matrix) *mat.Matrix {
	out := mat.New(h.Rows, h.Cols)
	for v := range adj {
		if len(adj[v]) == 0 {
			continue
		}
		dst := out.Row(v)
		for _, n := range adj[v] {
			mat.Axpy(1, h.Row(int(n)), dst)
		}
		inv := 1 / float64(len(adj[v]))
		for j := range dst {
			dst[j] *= inv
		}
	}
	return out
}

func referenceNeighborMeanTranspose(adj [][]graph.NodeID, g *mat.Matrix) *mat.Matrix {
	out := mat.New(g.Rows, g.Cols)
	for v := range adj {
		if len(adj[v]) == 0 {
			continue
		}
		inv := 1 / float64(len(adj[v]))
		src := g.Row(v)
		for _, n := range adj[v] {
			mat.Axpy(inv, src, out.Row(int(n)))
		}
	}
	return out
}

// randUndirectedAdj builds a random simple undirected graph (no
// self-loops, stored as both directed arcs) big enough to trip the
// parallel SpMM path at 16 feature columns.
func randUndirectedAdj(rng *rand.Rand, n, edges int) [][]graph.NodeID {
	adj := make([][]graph.NodeID, n)
	seen := map[[2]int]bool{}
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		seen[[2]int{v, u}] = true
		adj[u] = append(adj[u], graph.NodeID(v))
		adj[v] = append(adj[v], graph.NodeID(u))
	}
	return adj
}

// assertBitEqual delegates to the shared comparator; kept as a local
// name because nearly every equivalence test in this package calls it.
func assertBitEqual(t *testing.T, name string, got, want *mat.Matrix) {
	t.Helper()
	mattest.BitEqual(t, name, got, want)
}

// TestAggregationKernelsMatchReferenceBitIdentical pins the CSR-based
// GCN and SAGE aggregations to the legacy loop nests they replaced, at
// both one worker (pure serial) and eight (parallel blocks), proving
// the refactor changed no bits and the parallel path is deterministic.
func TestAggregationKernelsMatchReferenceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj := randUndirectedAdj(rng, 400, 3200)
	x := mat.RandNormal(rng, 400, 16, 0, 1)

	norm := referenceGCNNorm(adj)
	wantGCN := referenceGCNProp(adj, norm, x)
	wantMean := referenceNeighborMean(adj, x)
	wantMeanT := referenceNeighborMeanTranspose(adj, x)

	for _, workers := range []int{1, 8} {
		prev := par.SetWorkers(workers)
		a := sparse.FromAdj(adj)
		assertBitEqual(t, "gcnOperator", gcnOperator(Input{CSR: a}).Mul(x), wantGCN)
		mean := a.MeanNormalized()
		assertBitEqual(t, "neighborMean", mean.Mul(x), wantMean)
		assertBitEqual(t, "neighborMeanTranspose", mean.MulTrans(x), wantMeanT)
		par.SetWorkers(prev)
	}
}
