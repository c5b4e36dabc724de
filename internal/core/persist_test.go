package core

import (
	"bytes"
	"testing"

	"trail/internal/graph"
	"trail/internal/osint"
)

func TestTKGSnapshotRoundTrip(t *testing.T) {
	tkg, w := buildTestTKG(t)
	var buf bytes.Buffer
	if _, err := tkg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTKGFallible(&buf, osint.Infallible(w), w.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.G.NumNodes() != tkg.G.NumNodes() || loaded.G.NumEdges() != tkg.G.NumEdges() {
		t.Fatal("graph shape lost")
	}
	if len(loaded.Features) != len(tkg.Features) {
		t.Fatalf("features lost: %d vs %d", len(loaded.Features), len(tkg.Features))
	}
	for id, vec := range tkg.Features {
		got, ok := loaded.Features[id]
		if !ok || len(got) != len(vec) {
			t.Fatalf("feature vector for node %d lost", id)
		}
	}
	if loaded.SkippedPulses != tkg.SkippedPulses {
		t.Fatal("skip counter lost")
	}
	if loaded.Config != tkg.Config {
		t.Fatal("build config lost")
	}
	// Labels derived from the eventAPTs metadata must survive a
	// re-finalisation after load.
	loaded.FinalizeLabels()
	tkg.G.ForEachNode(func(n graph.Node) {
		if n.FirstOrder && loaded.G.Node(n.ID).Label != n.Label {
			t.Fatalf("IOC label changed after reload for %s", n.Key)
		}
	})
}

func TestTKGSaveLoadFile(t *testing.T) {
	tkg, w := buildTestTKG(t)
	path := t.TempDir() + "/tkg.gob"
	if err := tkg.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTKG(path, w, w.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.EventNodes()) != len(tkg.EventNodes()) {
		t.Fatal("events lost")
	}
	// A loaded TKG must accept new pulses (merge path intact).
	future := osint.Pulse{
		ID:   "post-load-pulse",
		Tags: []string{"APT28"},
		Indicators: []osint.Indicator{
			{Indicator: "198.51.100.77", Type: "IPv4"},
		},
	}
	if _, err := loaded.AddPulse(future); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTKG(t.TempDir()+"/missing.gob", w, w.Resolver()); err == nil {
		t.Fatal("loading a missing snapshot should fail")
	}
}

func TestTKGSnapshotCorruptionDetected(t *testing.T) {
	tkg, w := buildTestTKG(t)
	var buf bytes.Buffer
	if _, err := tkg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncate the trailer: the feature envelope should fail to decode.
	if _, err := ReadTKGFallible(bytes.NewReader(raw[:len(raw)-10]), osint.Infallible(w), w.Resolver()); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}
