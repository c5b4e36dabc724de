package graph

import (
	"trail/internal/mat"
	"trail/internal/sparse"
)

// This file holds the graph analytics used by the TKG dataset report
// (Section V of the paper) and by the attribution models: BFS distances,
// ego networks, connected components and pseudo-diameter estimation.
// They walk the rows of an adjacency CSR (Graph.CSR, or a subgraph of
// it), so repeated traversals share one immutable snapshot lock-free.

// BFSDistances returns the hop distance from src to every node reachable
// through the adjacency a, with -1 for unreachable nodes. maxDepth < 0
// means unlimited. Any element type works: only the structure is read.
func BFSDistances[T mat.Float](a *sparse.CSR[T], src NodeID, maxDepth int) []int32 {
	dist := make([]int32, a.Rows)
	for i := range dist {
		dist[i] = -1
	}
	if int(src) >= a.Rows {
		return dist
	}
	dist[src] = 0
	frontier := []NodeID{src}
	for depth := int32(1); len(frontier) > 0; depth++ {
		if maxDepth >= 0 && depth > int32(maxDepth) {
			break
		}
		var next []NodeID
		for _, u := range frontier {
			for _, v := range a.ColIdx[a.RowPtr[u]:a.End(int(u))] {
				if dist[v] < 0 {
					dist[v] = depth
					next = append(next, NodeID(v))
				}
			}
		}
		frontier = next
	}
	return dist
}

// EgoNet describes the subgraph induced by a node and its k-hop
// neighbourhood.
type EgoNet struct {
	Ego   NodeID
	Nodes []NodeID       // includes Ego; BFS order
	Dist  map[NodeID]int // hop distance from Ego
	Edges [][2]NodeID    // induced edges (u < v once each)
	Types map[[2]NodeID]EdgeType
}

// Ego returns the k-hop ego network around src. Edge types are taken from
// the live graph, so g must be the graph a was emitted from.
func (g *Graph) Ego(a *sparse.Matrix, src NodeID, k int) *EgoNet {
	dist := BFSDistances(a, src, k)
	net := &EgoNet{
		Ego:   src,
		Dist:  make(map[NodeID]int),
		Types: make(map[[2]NodeID]EdgeType),
	}
	in := make(map[NodeID]bool)
	for id, d := range dist {
		if d >= 0 {
			net.Nodes = append(net.Nodes, NodeID(id))
			net.Dist[NodeID(id)] = int(d)
			in[NodeID(id)] = true
		}
	}
	seen := make(map[[2]NodeID]bool)
	for _, u := range net.Nodes {
		g.NeighborEdges(u, func(v NodeID, t EdgeType, fwd bool) bool {
			if !in[v] {
				return true
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			key := [2]NodeID{a, b}
			if !seen[key] {
				seen[key] = true
				net.Edges = append(net.Edges, key)
				net.Types[key] = t
			}
			return true
		})
	}
	return net
}

// ConnectedComponents labels every node with a component index and returns
// the labels along with the component sizes, largest first in the sizes
// slice (label values are arbitrary but consistent with the returned
// sizes' original indices via the relabel map: sizes[i] is the size of the
// component whose label is order[i]).
func ConnectedComponents(a *sparse.Matrix) (labels []int32, sizes []int) {
	n := a.Rows
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var comp int32
	var stack []int32
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		size := 0
		stack = append(stack[:0], int32(s))
		labels[s] = comp
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, v := range a.ColIdx[a.RowPtr[u]:a.End(int(u))] {
				if labels[v] < 0 {
					labels[v] = comp
					stack = append(stack, v)
				}
			}
		}
		sizes = append(sizes, size)
		comp++
	}
	return labels, sizes
}

// LargestComponent returns the node IDs of the largest connected
// component and its size.
func LargestComponent(a *sparse.Matrix) ([]NodeID, int) {
	labels, sizes := ConnectedComponents(a)
	best, bestSize := -1, 0
	for i, s := range sizes {
		if s > bestSize {
			best, bestSize = i, s
		}
	}
	if best < 0 {
		return nil, 0
	}
	out := make([]NodeID, 0, bestSize)
	for id, l := range labels {
		if l == int32(best) {
			out = append(out, NodeID(id))
		}
	}
	return out, bestSize
}

// PseudoDiameter estimates the diameter of the component containing start
// with the standard double-sweep heuristic iterated `sweeps` times: BFS
// from the current node, jump to the farthest node found, repeat. The
// returned value is a lower bound that is exact on trees and typically
// tight on small-world graphs like the TKG.
func PseudoDiameter(a *sparse.Matrix, start NodeID, sweeps int) int {
	if sweeps < 1 {
		sweeps = 1
	}
	cur := start
	best := 0
	for s := 0; s < sweeps; s++ {
		dist := BFSDistances(a, cur, -1)
		far, fd := cur, int32(0)
		for id, d := range dist {
			if d > fd {
				far, fd = NodeID(id), d
			}
		}
		if int(fd) <= best {
			break
		}
		best = int(fd)
		cur = far
	}
	return best
}

// InducedAdjacency returns the adjacency of the subgraph induced by keep
// (a predicate over node IDs) as a CSR over the original node IDs, entry
// order preserved. Nodes not kept have empty rows.
func InducedAdjacency(a *sparse.Matrix, keep func(NodeID) bool) *sparse.Matrix {
	rowPtr := make([]int, a.Rows+1)
	var colIdx []int32
	for u := 0; u < a.Rows; u++ {
		if keep(NodeID(u)) {
			for _, v := range a.ColIdx[a.RowPtr[u]:a.End(u)] {
				if keep(NodeID(v)) {
					colIdx = append(colIdx, v)
				}
			}
		}
		rowPtr[u+1] = len(colIdx)
	}
	return sparse.New(a.Rows, a.Cols, rowPtr, colIdx, nil)
}

// CountWithinHops returns how many of the candidate nodes have at least
// one *other* candidate within maxHops of them in a. The paper reports
// that 85% of event nodes are within 2 hops of another event node.
func CountWithinHops(a *sparse.Matrix, candidates []NodeID, maxHops int) int {
	isCand := make(map[NodeID]bool, len(candidates))
	for _, c := range candidates {
		isCand[c] = true
	}
	count := 0
	for _, c := range candidates {
		dist := BFSDistances(a, c, maxHops)
		for id, d := range dist {
			if d > 0 && isCand[NodeID(id)] {
				count++
				break
			}
		}
	}
	return count
}
