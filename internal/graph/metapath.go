package graph

// Meta-path traversal: BFS restricted to a set of edge types. The TKG
// schema gives edge types semantics (InReport = co-occurrence, ARecord /
// ResolvesTo = hosting, InGroup = ASN membership), so analyses often want
// to walk only part of the schema — e.g. "events related purely through
// direct IOC co-occurrence" is a BFS over InReport edges only, which is
// exactly what the paper's LP 2L measures.

// EdgeTypeSet is a bitmask over EdgeType values.
type EdgeTypeSet uint8

// NewEdgeTypeSet builds a set from the given types.
func NewEdgeTypeSet(types ...EdgeType) EdgeTypeSet {
	var s EdgeTypeSet
	for _, t := range types {
		s |= 1 << t
	}
	return s
}

// Has reports whether t is in the set.
func (s EdgeTypeSet) Has(t EdgeType) bool { return s&(1<<t) != 0 }

// AllEdgeTypes is the full schema.
func AllEdgeTypes() EdgeTypeSet {
	return NewEdgeTypeSet(EdgeInReport, EdgeARecord, EdgeInGroup, EdgeResolvesTo, EdgeHostedOn)
}

// MetaPathBFS returns hop distances from src walking only edges whose
// types appear in the pattern, in order: hop h may only use edge types in
// pattern[h-1]. A nil pattern entry set (zero value) blocks expansion at
// that depth. Distances are -1 for unreached nodes.
//
// Example: pattern {InReport}, {InReport} finds the events and IOCs of
// the classic 2-hop co-occurrence neighbourhood; pattern {InReport},
// {ResolvesTo|ARecord}, {InReport} finds events connected through one
// hosting hop.
func (g *Graph) MetaPathBFS(src NodeID, pattern []EdgeTypeSet) []int32 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	dist := make([]int32, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	if int(src) >= len(g.nodes) {
		return dist
	}
	dist[src] = 0
	frontier := []NodeID{src}
	for depth := 0; depth < len(pattern) && len(frontier) > 0; depth++ {
		allowed := pattern[depth]
		var next []NodeID
		for _, u := range frontier {
			for k := g.rows.start[u]; k < g.rows.end[u]; k++ {
				v := NodeID(g.rows.col[k])
				if allowed.Has(g.rows.meta[k].typ()) && dist[v] < 0 {
					dist[v] = int32(depth + 1)
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// CoOccurringEvents returns the events sharing at least one directly
// reported IOC with the given event (the paper's "direct resource reuse"
// relation), with the number of shared IOCs per event.
func (g *Graph) CoOccurringEvents(event NodeID) map[NodeID]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	r := &g.rows
	out := make(map[NodeID]int)
	for k := r.start[event]; k < r.end[event]; k++ {
		if r.meta[k].typ() != EdgeInReport {
			continue
		}
		ioc := r.col[k]
		for q := r.start[ioc]; q < r.end[ioc]; q++ {
			if other := NodeID(r.col[q]); r.meta[q].typ() == EdgeInReport && other != event {
				out[other]++
			}
		}
	}
	return out
}
