package labelprop

import (
	"sort"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/sparse"
)

// State carries the per-iteration propagation history that incremental
// re-convergence needs. Updating row v at iteration n reads the
// iteration-(n-1) rows of v's neighbours, so rows outside the dirty
// frontier must be available bit-for-bit from the previous run — a final
// Z alone is not enough.
//
// A State is owned by a single goroutine (the ingest apply stage);
// PropagateDirty mutates and returns it in place.
type State struct {
	Classes, Layers int
	// F[n] is the propagated mass after n+1 operator applications
	// (F_1 … F_Layers of Eq. 1), in original vertex order.
	F []*mat.Matrix
	// Z is the accumulated mass sum_n F_n — bit-identical to what
	// PropagateCSR returns for the same snapshot and seeds.
	Z *mat.Matrix
	// LastFrontier is the number of rows the most recent call recomputed
	// (== Rows for a full run): the dirty-frontier size metric.
	LastFrontier int
	// seeds is the normalised seed assignment the state was converged
	// under; PropagateDirty diffs against it to catch label changes.
	seeds map[graph.NodeID]int
}

// normalizeSeeds copies seeds keeping only in-range class assignments,
// mirroring PropagateCSRInto's seeding filter.
func normalizeSeeds(seeds map[graph.NodeID]int, classes int) map[graph.NodeID]int {
	out := make(map[graph.NodeID]int, len(seeds))
	for id, c := range seeds {
		if c >= 0 && c < classes {
			out[id] = c
		}
	}
	return out
}

// PropagateFull converges label propagation from scratch over a,
// retaining the full iteration history so later calls can re-converge
// incrementally. Z is bit-identical to PropagateCSR(a, seeds, classes,
// layers): the iteration below is the unpermuted accumulation loop, and
// the reordered fast path is bit-identical to it by construction.
func PropagateFull(a *sparse.Matrix, seeds map[graph.NodeID]int, classes, layers int) *State {
	n := a.Rows
	st := &State{
		Classes:      classes,
		Layers:       layers,
		F:            make([]*mat.Matrix, layers),
		Z:            mat.New(n, classes),
		seeds:        normalizeSeeds(seeds, classes),
		LastFrontier: n,
	}
	s := a.SymNormalized()
	f := mat.GetBuf(n, classes)
	for id, c := range st.seeds {
		f.Set(int(id), c, 1)
	}
	for l := 0; l < layers; l++ {
		next := mat.New(n, classes)
		s.SpMM(next, f)
		st.F[l] = next
		mat.AddInPlace(st.Z, next)
		if l == 0 {
			mat.PutBuf(f)
		}
		f = next
	}
	if layers == 0 {
		mat.PutBuf(f)
	}
	return st
}

// PropagateDirty re-converges label propagation after a batch of graph
// mutations, recomputing only the rows the mutations can reach. dirty
// must contain every structurally-touched vertex of the batch: created
// nodes and both endpoints of every inserted edge (graph.DrainDirty
// provides exactly this). Seed (label) changes are detected internally
// by diffing against the state's recorded assignment.
//
// The frontier grows one hop per iteration — changed_n = changed_{n-1} ∪
// N(changed_{n-1}) — which covers both mass flow and operator drift: an
// inserted edge changes its endpoints' degrees, which perturbs the
// symmetric normalisation in every neighbouring row, and those rows are
// N(dirty) ⊆ changed_1. Row updates replicate the SpMM kernel's
// accumulation order exactly (zero the row, then axpy CSR entries in
// order), so the state after PropagateDirty is bit-identical to
// PropagateFull over the mutated snapshot — proven by the equivalence
// tests, and cheap to spot-check in production via Z row comparisons.
//
// The graph is append-only (no node or edge removal), which is what
// makes the monotone frontier sound. prev is mutated and returned; a nil
// prev (or a classes/layers mismatch, or a shrunken snapshot) falls back
// to PropagateFull.
func PropagateDirty(a *sparse.Matrix, seeds map[graph.NodeID]int, classes, layers int, prev *State, dirty []graph.NodeID) *State {
	n := a.Rows
	if prev == nil || prev.Classes != classes || prev.Layers != layers || prev.Z.Rows > n {
		return PropagateFull(a, seeds, classes, layers)
	}
	st := prev
	oldN := st.Z.Rows
	if n > oldN {
		st.Z = growRows(st.Z, n)
		for l := range st.F {
			st.F[l] = growRows(st.F[l], n)
		}
	}
	newSeeds := normalizeSeeds(seeds, classes)

	changed := make(map[int32]struct{}, len(dirty)*2)
	for _, id := range dirty {
		if int(id) < n {
			changed[int32(id)] = struct{}{}
		}
	}
	for id, c := range newSeeds {
		if pc, ok := st.seeds[id]; !ok || pc != c {
			changed[int32(id)] = struct{}{}
		}
	}
	for id := range st.seeds {
		if _, ok := newSeeds[id]; !ok {
			changed[int32(id)] = struct{}{}
		}
	}
	st.seeds = newSeeds
	if len(changed) == 0 {
		st.LastFrontier = 0
		return st
	}

	s := a.SymNormalized()
	frontier := sortedSet(changed)
	for l := 0; l < layers; l++ {
		// Expand one hop, then recompute F_l over the whole frontier.
		for _, v := range frontier {
			for k, e := a.RowPtr[v], a.End(v); k < e; k++ {
				changed[a.ColIdx[k]] = struct{}{}
			}
		}
		frontier = sortedSet(changed)
		for _, v := range frontier {
			row := st.F[l].Row(v)
			for c := range row {
				row[c] = 0
			}
			if l == 0 {
				// F_0 is the implicit one-hot seed matrix: axpy against a
				// one-hot row touches exactly the seed column, and adding
				// val*0 elsewhere is exact (all mass is non-negative), so
				// skipping the zero columns is bitwise-neutral.
				for k, e := s.RowPtr[v], s.End(v); k < e; k++ {
					if c, ok := st.seeds[graph.NodeID(s.ColIdx[k])]; ok {
						row[c] += s.Val[k]
					}
				}
			} else {
				x := st.F[l-1]
				for k, e := s.RowPtr[v], s.End(v); k < e; k++ {
					mat.Axpy(s.Val[k], x.Row(int(s.ColIdx[k])), row)
				}
			}
		}
	}
	for _, v := range frontier {
		zrow := st.Z.Row(v)
		for c := range zrow {
			zrow[c] = 0
		}
		for l := 0; l < layers; l++ {
			mat.Axpy(1, st.F[l].Row(v), zrow)
		}
	}
	st.LastFrontier = len(frontier)
	return st
}

// growRows returns an m-row copy of src (m >= src.Rows) with the new
// rows zeroed — matching how a full run treats never-seeded, just-added
// vertices.
func growRows(src *mat.Matrix, m int) *mat.Matrix {
	out := mat.New(m, src.Cols)
	copy(out.Data, src.Data)
	return out
}

func sortedSet(set map[int32]struct{}) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}
