package core

import (
	"testing"

	"trail/internal/graph"
	"trail/internal/osint"
)

func buildTestTKG(t testing.TB) (*TKG, *osint.World) {
	t.Helper()
	w := osint.NewWorld(osint.TestConfig())
	tkg := NewTKG(w, w.Resolver(), DefaultBuildConfig())
	if _, err := tkg.Build(w.Pulses()); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tkg, w
}

func TestBuildProducesEventsAndIOCs(t *testing.T) {
	tkg, w := buildTestTKG(t)
	events := tkg.EventNodes()
	if len(events)+tkg.SkippedPulses != len(w.Pulses()) {
		t.Fatalf("events %d + skipped %d != pulses %d",
			len(events), tkg.SkippedPulses, len(w.Pulses()))
	}
	if len(events) == 0 {
		t.Fatal("no events built")
	}
	for _, k := range []graph.NodeKind{graph.KindIP, graph.KindURL, graph.KindDomain, graph.KindASN} {
		if len(tkg.G.NodesOfKind(k)) == 0 {
			t.Errorf("no %s nodes", k)
		}
	}
	if tkg.G.NumEdges() == 0 {
		t.Fatal("no edges")
	}
}

func TestEventLabelsResolved(t *testing.T) {
	tkg, _ := buildTestTKG(t)
	for _, id := range tkg.EventNodes() {
		n := tkg.G.Node(id)
		if n.Label < 0 || n.Label >= 22 {
			t.Fatalf("event %s has label %d", n.Key, n.Label)
		}
	}
}

func TestSecondaryIOCsDiscovered(t *testing.T) {
	tkg, _ := buildTestTKG(t)
	first, second := 0, 0
	tkg.G.ForEachNode(func(n graph.Node) {
		switch n.Kind {
		case graph.KindIP, graph.KindURL, graph.KindDomain:
			if n.FirstOrder {
				first++
			} else {
				second++
			}
		}
	})
	if second == 0 {
		t.Fatal("enrichment discovered no secondary IOCs")
	}
	// The paper reports ~75% secondary; require a clear majority effect.
	if second < first/2 {
		t.Errorf("secondary %d suspiciously low vs first-order %d", second, first)
	}
}

func TestStatsConsistent(t *testing.T) {
	tkg, _ := buildTestTKG(t)
	rep := tkg.Stats()
	if rep.Total.Nodes != tkg.G.NumNodes() {
		t.Fatalf("stats nodes %d != graph %d", rep.Total.Nodes, tkg.G.NumNodes())
	}
	if rep.Total.Edges != 2*tkg.G.NumEdges() {
		t.Fatalf("stats degree-sum %d != 2*edges %d", rep.Total.Edges, 2*tkg.G.NumEdges())
	}
	if rep.Total.AvgReuse < 1 {
		t.Errorf("avg reuse %f < 1; every first-order IOC is in >= 1 event", rep.Total.AvgReuse)
	}
	if s := rep.String(); len(s) == 0 {
		t.Error("empty report rendering")
	}
}

func TestConnectivityGiantComponent(t *testing.T) {
	tkg, _ := buildTestTKG(t)
	cs := tkg.Connectivity()
	if cs.LargestComponentPct < 50 {
		t.Errorf("largest component only %.1f%% of graph; world should be well connected",
			cs.LargestComponentPct)
	}
	if cs.EventsWithin2HopsPct < 30 {
		t.Errorf("only %.1f%% of events within 2 hops of another event; reuse too low",
			cs.EventsWithin2HopsPct)
	}
	if cs.Diameter <= 0 {
		t.Errorf("diameter %d", cs.Diameter)
	}
}

func TestLabeledIOCsAreFirstOrderAndPure(t *testing.T) {
	tkg, _ := buildTestTKG(t)
	ids, labels := tkg.LabeledIOCs(graph.KindDomain)
	if len(ids) == 0 {
		t.Fatal("no labeled domains")
	}
	if len(ids) != len(labels) {
		t.Fatalf("ids/labels length mismatch")
	}
	for i, id := range ids {
		n := tkg.G.Node(id)
		if !n.FirstOrder {
			t.Fatalf("labeled IOC %s not first-order", n.Key)
		}
		if n.Label != labels[i] {
			t.Fatalf("label mismatch for %s", n.Key)
		}
	}
}

func TestFeaturesPresentForIOCs(t *testing.T) {
	tkg, _ := buildTestTKG(t)
	missing := 0
	total := 0
	tkg.G.ForEachNode(func(n graph.Node) {
		switch n.Kind {
		case graph.KindIP, graph.KindURL, graph.KindDomain:
			total++
			if _, ok := tkg.Features[n.ID]; !ok {
				missing++
			}
		}
	})
	if missing > 0 {
		t.Errorf("%d/%d IOC nodes missing features", missing, total)
	}
}

func TestAddPulseDuplicateRejected(t *testing.T) {
	tkg, w := buildTestTKG(t)
	p := w.Pulses()[0]
	if _, err := tkg.AddPulse(p); err == nil {
		t.Fatal("expected duplicate pulse error")
	}
}
