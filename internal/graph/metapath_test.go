package graph

import "testing"

// buildSchemaGraph: ev1 -InReport-> ip1 -ARecord-> dom1, ip1 -InGroup->
// asn1, ev2 -InReport-> dom1.
func buildSchemaGraph(t *testing.T) (*Graph, NodeID, NodeID, NodeID, NodeID, NodeID) {
	t.Helper()
	g := New()
	ev1, _ := g.Upsert(KindEvent, "ev1")
	ev2, _ := g.Upsert(KindEvent, "ev2")
	ip1, _ := g.Upsert(KindIP, "1.1.1.1")
	dom1, _ := g.Upsert(KindDomain, "a.com")
	asn1, _ := g.Upsert(KindASN, "AS9")
	g.AddEdge(ev1, ip1, EdgeInReport)
	g.AddEdge(ip1, dom1, EdgeARecord)
	g.AddEdge(ip1, asn1, EdgeInGroup)
	g.AddEdge(ev2, dom1, EdgeInReport)
	return g, ev1, ev2, ip1, dom1, asn1
}

func TestEdgeTypeSet(t *testing.T) {
	s := NewEdgeTypeSet(EdgeInReport, EdgeARecord)
	if !s.Has(EdgeInReport) || !s.Has(EdgeARecord) {
		t.Fatal("membership broken")
	}
	if s.Has(EdgeInGroup) || s.Has(EdgeHostedOn) {
		t.Fatal("false membership")
	}
	all := AllEdgeTypes()
	for _, et := range EdgeTypes() {
		if !all.Has(et) {
			t.Fatalf("AllEdgeTypes missing %s", et)
		}
	}
}

func TestMetaPathBFS(t *testing.T) {
	g, ev1, ev2, ip1, dom1, asn1 := buildSchemaGraph(t)

	// InReport-only 2-hop: reaches ip1 but not dom1 (ip1-dom1 is ARecord).
	rep := NewEdgeTypeSet(EdgeInReport)
	dist := g.MetaPathBFS(ev1, []EdgeTypeSet{rep, rep})
	if dist[ip1] != 1 {
		t.Fatalf("ip1 at %d", dist[ip1])
	}
	if dist[dom1] != -1 || dist[ev2] != -1 {
		t.Fatal("InReport-only walk leaked through hosting edges")
	}

	// InReport, ARecord, InReport: the hosting path reaches ev2 at hop 3.
	host := NewEdgeTypeSet(EdgeARecord, EdgeResolvesTo)
	dist = g.MetaPathBFS(ev1, []EdgeTypeSet{rep, host, rep})
	if dist[dom1] != 2 || dist[ev2] != 3 {
		t.Fatalf("hosting meta-path: dom1=%d ev2=%d", dist[dom1], dist[ev2])
	}
	if dist[asn1] != -1 {
		t.Fatal("ASN edge followed despite pattern exclusion")
	}
}

func TestCoOccurringEvents(t *testing.T) {
	g, ev1, ev2, ip1, _, _ := buildSchemaGraph(t)
	// Currently ev1 and ev2 share no directly reported IOC.
	if got := g.CoOccurringEvents(ev1); len(got) != 0 {
		t.Fatalf("unexpected co-occurrence %v", got)
	}
	// Make ip1 shared.
	g.AddEdge(ev2, ip1, EdgeInReport)
	got := g.CoOccurringEvents(ev1)
	if got[ev2] != 1 {
		t.Fatalf("co-occurrence %v", got)
	}
}
