package core

import (
	"bytes"
	"testing"

	"trail/internal/graph"
	"trail/internal/osint"
)

func TestCloneIsDeepForGraph(t *testing.T) {
	tkg, w := buildTestTKG(t)
	cp, err := tkg.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if cp.G.NumNodes() != tkg.G.NumNodes() || cp.G.NumEdges() != tkg.G.NumEdges() {
		t.Fatal("clone shape mismatch")
	}
	if len(cp.Features) != len(tkg.Features) {
		t.Fatal("clone features mismatch")
	}

	// Merging a future pulse into the clone must not touch the original.
	origNodes := tkg.G.NumNodes()
	var future *osint.Pulse
	for i := range w.Pulses() {
		p := w.Pulses()[i]
		if _, ok := tkg.G.Lookup(graph.KindEvent, p.ID); !ok {
			future = &p
			break
		}
	}
	if future == nil {
		// All pulses already merged: synthesise a fresh one by re-tagging.
		p := w.Pulses()[0]
		p.ID = "synthetic-new-pulse"
		future = &p
	}
	if _, err := cp.AddPulse(*future); err != nil {
		t.Fatal(err)
	}
	cp.FinalizeLabels()
	if tkg.G.NumNodes() != origNodes {
		t.Fatal("merging into the clone mutated the original graph")
	}
	if cp.G.NumNodes() <= origNodes {
		t.Fatal("clone did not grow")
	}
}

// TestCloneWritesSameBytes: a clone serialises to exactly the original's
// bytes, so streaming ingest can hand out state copies through Clone
// instead of a serialise→decode round trip, and it shares every feature
// vector instead of copying it.
func TestCloneWritesSameBytes(t *testing.T) {
	tkg, _ := buildTestTKG(t)
	cp, err := tkg.Clone()
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if _, err := tkg.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("clone writes %d bytes that differ from the original's %d", got.Len(), want.Len())
	}
	for id, v := range tkg.Features {
		if w := cp.Features[id]; len(w) != len(v) || len(v) > 0 && &w[0] != &v[0] {
			t.Fatalf("node %d: clone does not share the feature vector", id)
		}
	}
}

func TestCloneSharesServices(t *testing.T) {
	tkg, _ := buildTestTKG(t)
	cp, err := tkg.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// The clone shares the underlying enrichment stack but owns its
	// error tap and extractor, so enrichment failures during a merge into
	// the clone degrade the clone's report, not the original's.
	if cp.fsvc != tkg.fsvc {
		t.Fatal("clone must share the underlying enrichment services")
	}
	if cp.svc == tkg.svc || cp.Extractor == tkg.Extractor {
		t.Fatal("clone must own its error tap and extractor")
	}
	// Labels and reuse metadata must survive the round trip.
	for _, ev := range tkg.EventNodes() {
		if cp.G.Node(ev).Label != tkg.G.Node(ev).Label {
			t.Fatal("event label lost in clone")
		}
	}
}

func TestMaxHopsOneSkipsSecondaries(t *testing.T) {
	w := osint.NewWorld(osint.TestConfig())
	shallow := NewTKG(w, w.Resolver(), BuildConfig{MaxHops: 1, FeaturizeSecondaries: true})
	if _, err := shallow.Build(w.Pulses()); err != nil {
		t.Fatal(err)
	}
	deep := NewTKG(w, w.Resolver(), DefaultBuildConfig())
	if _, err := deep.Build(w.Pulses()); err != nil {
		t.Fatal(err)
	}
	if shallow.G.NumNodes() >= deep.G.NumNodes() {
		t.Fatalf("MaxHops=1 graph (%d nodes) not smaller than 2-hop graph (%d)",
			shallow.G.NumNodes(), deep.G.NumNodes())
	}
	// With MaxHops 1 every IOC node must be first-order: nothing was
	// discovered by expansion.
	shallow.G.ForEachNode(func(n graph.Node) {
		switch n.Kind {
		case graph.KindIP, graph.KindURL, graph.KindDomain:
			if !n.FirstOrder {
				t.Fatalf("secondary IOC %s present despite MaxHops=1", n.Key)
			}
		}
	})
}

func TestSkippedPulseLeavesGraphUntouched(t *testing.T) {
	w := osint.NewWorld(osint.TestConfig())
	tkg := NewTKG(w, w.Resolver(), DefaultBuildConfig())
	p := w.Pulses()[0]
	p.ID = "conflicted"
	p.Tags = []string{"APT28", "APT29"} // resolves to two groups: must skip
	if _, err := tkg.AddPulse(p); err != ErrSkipped {
		t.Fatalf("expected ErrSkipped, got %v", err)
	}
	if tkg.G.NumNodes() != 0 {
		t.Fatal("skipped pulse added nodes")
	}
	if tkg.SkippedPulses != 1 {
		t.Fatalf("SkippedPulses = %d", tkg.SkippedPulses)
	}
}

func TestEventCountMatchesInReportDegree(t *testing.T) {
	tkg, _ := buildTestTKG(t)
	tkg.G.ForEachNode(func(n graph.Node) {
		if !n.FirstOrder {
			return
		}
		count := 0
		tkg.G.NeighborEdges(n.ID, func(_ graph.NodeID, et graph.EdgeType, _ bool) bool {
			if et == graph.EdgeInReport {
				count++
			}
			return true
		})
		if n.EventCount != count {
			t.Fatalf("%s EventCount %d != InReport degree %d", n.Key, n.EventCount, count)
		}
	})
}

func TestSchemaEdgeEndpoints(t *testing.T) {
	// Every edge type must connect the node kinds Table I allows.
	tkg, _ := buildTestTKG(t)
	allowed := map[graph.EdgeType]map[[2]graph.NodeKind]bool{
		graph.EdgeInReport: {
			{graph.KindEvent, graph.KindIP}:     true,
			{graph.KindEvent, graph.KindURL}:    true,
			{graph.KindEvent, graph.KindDomain}: true,
		},
		graph.EdgeARecord:    {{graph.KindIP, graph.KindDomain}: true},
		graph.EdgeInGroup:    {{graph.KindIP, graph.KindASN}: true},
		graph.EdgeHostedOn:   {{graph.KindURL, graph.KindDomain}: true},
		graph.EdgeResolvesTo: {{graph.KindURL, graph.KindIP}: true, {graph.KindDomain, graph.KindIP}: true},
	}
	tkg.G.ForEachNode(func(n graph.Node) {
		tkg.G.NeighborEdges(n.ID, func(to graph.NodeID, et graph.EdgeType, fwd bool) bool {
			if !fwd {
				return true
			}
			pair := [2]graph.NodeKind{n.Kind, tkg.G.Node(to).Kind}
			if !allowed[et][pair] {
				t.Fatalf("edge %s connects %s -> %s, not allowed by Table I",
					et, pair[0], pair[1])
			}
			return true
		})
	})
}
