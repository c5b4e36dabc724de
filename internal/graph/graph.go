// Package graph implements the embedded property-graph store that backs
// the TRAIL knowledge graph. It plays the role neo4j plays in the paper:
// typed nodes addressed by (kind, key), typed edges, adjacency indexes,
// and the traversal primitives (BFS, ego-nets, connected components,
// diameter estimation) that the analysis layers need.
//
// The store is an in-memory adjacency graph optimised for the TKG
// workload: build once (or incrementally merge event subgraphs), then
// traverse many times. Edges live in one slot-row store whose rows wrap
// directly as CSR (inccsr.go). All mutating and reading methods are safe
// for concurrent use; bulk analytics walk the immutable CSR snapshot.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"trail/internal/sparse"
)

// NodeID identifies a node within one Graph. IDs are dense: they index
// internal slices and are assigned in insertion order, which makes them
// directly usable as matrix row indices by the ML layers.
type NodeID int32

// NodeKind enumerates the node types of the TKG schema (Fig. 2 of the
// paper).
type NodeKind uint8

// Node kinds, in the order they appear in the paper's Table II.
const (
	KindEvent NodeKind = iota
	KindIP
	KindURL
	KindDomain
	KindASN
	numKinds
)

// String returns the human-readable kind name.
func (k NodeKind) String() string {
	switch k {
	case KindEvent:
		return "Event"
	case KindIP:
		return "IP"
	case KindURL:
		return "URL"
	case KindDomain:
		return "Domain"
	case KindASN:
		return "ASN"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Kinds returns all node kinds in schema order.
func Kinds() []NodeKind {
	return []NodeKind{KindEvent, KindIP, KindURL, KindDomain, KindASN}
}

// EdgeType enumerates the relation types of Table I.
type EdgeType uint8

// Edge types from Table I of the paper.
const (
	EdgeInReport   EdgeType = iota // Event -> IP | Domain | URL
	EdgeARecord                    // IP -> Domain (passive DNS A record)
	EdgeInGroup                    // IP -> ASN
	EdgeResolvesTo                 // URL | Domain -> IP
	EdgeHostedOn                   // URL -> Domain
	numEdgeTypes
)

// String returns the schema name of the edge type.
func (t EdgeType) String() string {
	switch t {
	case EdgeInReport:
		return "InReport"
	case EdgeARecord:
		return "ARecord"
	case EdgeInGroup:
		return "InGroup"
	case EdgeResolvesTo:
		return "ResolvesTo"
	case EdgeHostedOn:
		return "HostedOn"
	default:
		return fmt.Sprintf("EdgeType(%d)", uint8(t))
	}
}

// EdgeTypes returns all edge types in schema order.
func EdgeTypes() []EdgeType {
	return []EdgeType{EdgeInReport, EdgeARecord, EdgeInGroup, EdgeResolvesTo, EdgeHostedOn}
}

// Node is the stored record for a graph node.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Key is the node's natural identifier: the IOC string (IP address,
	// URL, domain, "AS1234") or the event's report ID.
	Key string
	// Label is the APT class index for event nodes, or -1. IOC nodes that
	// appear in exactly one APT's events may also carry that label for the
	// per-IOC experiments (Table III); multi-labelled IOCs keep -1.
	Label int
	// FirstOrder records whether the node was listed directly in at least
	// one incident report (as opposed to being discovered only during
	// enrichment).
	FirstOrder bool
	// EventCount is the number of distinct events this IOC appeared in
	// (the "reuse" statistic of Table II); 0 for event and ASN nodes.
	EventCount int
	// Month is the (year*12+month) bucket the node first appeared in;
	// used by the longitudinal experiments. Zero means unknown.
	Month int
	// Degraded records that enrichment failed for this IOC during TKG
	// construction (provider outage, retries exhausted): its feature
	// vector is imputed rather than measured, and its relation expansion
	// may be incomplete. Snapshots written before this field decode it
	// as false.
	Degraded bool
}

// Graph is the property-graph store. The zero value is not usable; call
// New.
type Graph struct {
	mu    sync.RWMutex
	nodes []Node
	// rows is the undirected adjacency, the graph's only edge store:
	// every logical edge (u,v,t) appears as an entry in row u and in row
	// v, each tagged with its type and whether it is the schema (forward)
	// direction. Traversal in the TKG is always undirected (label
	// propagation and GraphSAGE both treat the graph symmetrically), so
	// storing both directions keeps hot paths simple. Rows are
	// append-only and their column arrays wrap directly as CSR (see
	// inccsr.go).
	rows rowStore
	// index maps (kind, key) to NodeID.
	index map[nodeRef]NodeID
	// edgeCount is the number of logical (undirected) edges.
	edgeCount int
	// kindCount caches node counts per kind.
	kindCount [numKinds]int
	// typeCount caches edge counts per type.
	typeCount [numEdgeTypes]int
	// csr caches the CSR snapshot returned by CSR(); invalidated by any
	// mutation (Upsert, AddEdge) so repeated analytics runs share one
	// frozen copy instead of re-copying adjacency lists per call.
	csr *sparse.Matrix
	// version counts structural and record mutations (node created, edge
	// inserted, node record updated). Reads that pair a Version() with a
	// CSR() can cheaply detect staleness without pointer identity games.
	version uint64
	// dirty accumulates structurally-touched node IDs (created nodes and
	// endpoints of inserted edges) when tracking is enabled; the streaming
	// ingest path drains it to seed incremental label propagation.
	dirty map[NodeID]struct{}
	// dirtyBuf is DrainDirty's recycled output buffer.
	dirtyBuf []NodeID
	// patchApplied / patchFallback count CSR snapshot emissions by kind
	// (see CSRPatchStats).
	patchApplied  uint64
	patchFallback uint64
}

type nodeRef struct {
	kind NodeKind
	key  string
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[nodeRef]NodeID), rows: newRowStore()}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// NumEdges returns the number of logical (undirected) edges.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edgeCount
}

// KindCount returns the number of nodes of kind k.
func (g *Graph) KindCount(k NodeKind) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.kindCount[k]
}

// EdgeTypeCount returns the number of edges of type t.
func (g *Graph) EdgeTypeCount(t EdgeType) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.typeCount[t]
}

// Upsert returns the ID of the node with the given kind and key, creating
// it (with Label -1) if absent. The second result reports whether the node
// was created by this call.
func (g *Graph) Upsert(kind NodeKind, key string) (NodeID, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ref := nodeRef{kind, key}
	if id, ok := g.index[ref]; ok {
		return id, false
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Key: key, Label: -1})
	g.rows.addNode()
	g.index[ref] = id
	g.kindCount[kind]++
	g.csr = nil
	g.version++
	if g.dirty != nil {
		g.dirty[id] = struct{}{}
	}
	return id, true
}

// Version returns a monotonic mutation counter: it increases on every
// node creation, edge insertion and UpdateNode call. Consumers holding a
// CSR() snapshot (or any derived artefact, e.g. a published serving
// snapshot) can compare versions to detect staleness cheaply.
func (g *Graph) Version() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.version
}

// TrackDirty enables (or disables) structural dirty tracking. While
// enabled, every created node and every endpoint of an inserted edge is
// accumulated into a set drained by DrainDirty. Disabling clears the set.
func (g *Graph) TrackDirty(on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if on && g.dirty == nil {
		g.dirty = make(map[NodeID]struct{})
	}
	if !on {
		g.dirty = nil
	}
}

// DrainDirty returns the structurally-touched node IDs accumulated since
// the last call, sorted ascending, and resets the set. It returns nil
// when tracking is disabled or nothing was touched. The IDs are written
// into a buffer owned by the graph and returned as a view, valid until
// the next DrainDirty call (slices.Clone it to keep it): the
// single-consumer streaming apply loop drains per event, so the buffer
// is recycled thousands of times per cut.
func (g *Graph) DrainDirty() []NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.dirty) == 0 {
		return nil
	}
	buf := g.dirtyBuf[:0]
	for id := range g.dirty {
		buf = append(buf, id)
	}
	clear(g.dirty)
	slices.Sort(buf)
	g.dirtyBuf = buf
	return buf
}

// Lookup returns the ID of the node with the given kind and key, if
// present.
func (g *Graph) Lookup(kind NodeKind, key string) (NodeID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	id, ok := g.index[nodeRef{kind, key}]
	return id, ok
}

// Node returns a copy of the node record for id. It panics if id is out of
// range.
func (g *Graph) Node(id NodeID) Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes[id]
}

// UpdateNode applies f to the stored node record for id under the write
// lock. Kind and Key must not be changed by f; ID is restored afterwards.
func (g *Graph) UpdateNode(id NodeID, f func(*Node)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := &g.nodes[id]
	f(n)
	n.ID = id
	g.version++
}

// AddEdge inserts an undirected edge u-(t)->v if it does not already
// exist; the stored direction is u->v. Self-loops are rejected. It reports
// whether a new edge was inserted.
func (g *Graph) AddEdge(u, v NodeID, t EdgeType) bool {
	if u == v {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addEdgeLocked(u, v, t)
}

// addEdgeLocked is AddEdge for a non-loop edge under g.mu.
func (g *Graph) addEdgeLocked(u, v NodeID, t EdgeType) bool {
	if g.rows.has(u, v, t) {
		return false
	}
	g.rows.addEdge(u, v, t)
	g.edgeCount++
	g.typeCount[t]++
	g.csr = nil
	g.version++
	if g.dirty != nil {
		g.dirty[u] = struct{}{}
		g.dirty[v] = struct{}{}
	}
	return true
}

// Degree returns the undirected degree of id.
func (g *Graph) Degree(id NodeID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.rows.degree(id)
}

// Neighbors returns the IDs adjacent to id (both directions), in storage
// order. The returned slice is freshly allocated.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	row := g.rows.row(id)
	out := make([]NodeID, len(row))
	for i, v := range row {
		out[i] = NodeID(v)
	}
	return out
}

// NeighborEdges calls f for every half edge incident to id. fwd reports
// whether the schema direction is id->to. Iteration stops early if f
// returns false.
func (g *Graph) NeighborEdges(id NodeID, f func(to NodeID, t EdgeType, fwd bool) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for k := g.rows.start[id]; k < g.rows.end[id]; k++ {
		m := g.rows.meta[k]
		if !f(NodeID(g.rows.col[k]), m.typ(), m.fwd()) {
			return
		}
	}
}

// ForEachEdge calls f once per logical edge in its forward (schema)
// direction, ordered by source node ID and then by insertion order within
// the node — a deterministic walk, which is what lets the shard merge
// replay one graph's edges into another and get identical adjacency on
// every run. Iteration stops early if f returns false.
func (g *Graph) ForEachEdge(f func(u, v NodeID, t EdgeType) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for u := range g.nodes {
		for k := g.rows.start[u]; k < g.rows.end[u]; k++ {
			if m := g.rows.meta[k]; m.fwd() {
				if !f(NodeID(u), NodeID(g.rows.col[k]), m.typ()) {
					return
				}
			}
		}
	}
}

// NodesOfKind returns the IDs of all nodes of kind k, in ID order.
func (g *Graph) NodesOfKind(k NodeKind) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]NodeID, 0, g.kindCount[k])
	for i := range g.nodes {
		if g.nodes[i].Kind == k {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// ForEachNode calls f with a copy of every node record in ID order.
func (g *Graph) ForEachNode(f func(Node)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for i := range g.nodes {
		f(g.nodes[i])
	}
}

// Adjacency returns a freshly allocated copy of the adjacency rows,
// indexed by NodeID. Nothing in the system reads it any more — the
// analytics walk CSR() rows — but the benchmark harness in perfbench/
// times it as a layer probe, which is why it remains.
func (g *Graph) Adjacency() [][]NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([][]NodeID, len(g.nodes))
	for i := range out {
		row := g.rows.row(NodeID(i))
		ids := make([]NodeID, len(row))
		for j, v := range row {
			ids[j] = NodeID(v)
		}
		out[i] = ids
	}
	return out
}

// CSR returns the undirected adjacency as an unweighted CSR matrix, the
// shared handoff to the sparse message-passing engine (label
// propagation, GCN, GraphSAGE all normalise and multiply this one
// snapshot). Neighbour order matches the adjacency lists. The snapshot
// is cached and invalidated on mutation, so repeated calls between
// mutations return the same frozen matrix at zero cost; callers must
// treat it as read-only.
func (g *Graph) CSR() *sparse.Matrix {
	g.mu.RLock()
	c := g.csr
	g.mu.RUnlock()
	if c != nil {
		return c
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.csrLocked()
}

// csrLocked returns the cached snapshot, emitting one from the rows
// first if a mutation invalidated it. Caller holds g.mu for writing.
func (g *Graph) csrLocked() *sparse.Matrix {
	if g.csr == nil {
		m, fullSort := g.rows.packed()
		if fullSort {
			g.patchFallback++
		} else {
			g.patchApplied++
		}
		g.csr = m
	}
	return g.csr
}

// CSRReordered returns the snapshot's cache-aware degree-descending view
// together with the vertex permutation mapping it back to original IDs
// (nil when the snapshot is small enough to skip reordering — see
// sparse.ReorderMinRows). The permuted view and its normalisation caches
// are built once per snapshot and shared, exactly like CSR itself;
// consumers that run row-local kernels (label propagation, GNN
// inference) execute in permuted space and scatter results back, which
// is bit-identical to running unpermuted.
func (g *Graph) CSRReordered() (*sparse.Matrix, *sparse.Permutation) {
	return g.CSR().Reordered()
}

// SortedNeighborKeys returns the keys of id's neighbours sorted
// lexicographically; useful for deterministic test assertions and debug
// rendering.
func (g *Graph) SortedNeighborKeys(id NodeID) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	row := g.rows.row(id)
	keys := make([]string, len(row))
	for i, v := range row {
		keys[i] = g.nodes[v].Key
	}
	sort.Strings(keys)
	return keys
}
