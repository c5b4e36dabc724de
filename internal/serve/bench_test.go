package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/graph"
)

// The serving-layer micro-benchmarks. A snapshot answers from the table
// NewSnapshot materialised, so Batch32 (one 32-query call) and Single32
// (32 one-query calls) both time row copies out of that table: their
// ratio is call overhead, not forward-pass amortisation. The names stay
// so bench-check keeps pairing them with the recorded baseline. The
// forward cost now lives in BenchmarkServeSnapshotBuild, and
// BenchmarkServeAttributeHTTP times one whole request.

func benchQueries(b *testing.B, n int) (*Snapshot, []graph.NodeID) {
	snap := fixture(b).snapshot64(b)
	ids := snap.g.NodesOfKind(graph.KindEvent)
	if len(ids) < n {
		b.Fatalf("only %d events", len(ids))
	}
	return snap, ids[:n]
}

func BenchmarkServeAttributeBatch32(b *testing.B) {
	snap, queries := benchQueries(b, 32)
	out := make([][]float64, len(queries))
	for i := range out {
		out[i] = make([]float64, snap.Classes())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Attribute(queries, out)
	}
	b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkServeAttributeSingle32(b *testing.B) {
	snap, queries := benchQueries(b, 32)
	out := [][]float64{make([]float64, snap.Classes())}
	one := make([]graph.NodeID, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			one[0] = q
			snap.Attribute(one, out)
		}
	}
	b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkServeSnapshotBuild times NewSnapshot at the serving default
// precision (float32) with a freshly loaded encoder set: every row
// encoded, then the one full-graph forward pass that fills the answer
// table — the cost of a reload. BenchmarkSnapshotRepublish times the
// warm path an ingest publish takes.
func BenchmarkServeSnapshotBuild(b *testing.B) {
	f := fixture(b)
	g, feats := f.ectx.TKG.G, f.ectx.TKG.Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		enc := freshEncoders(b, f.enc)
		b.StartTimer()
		if _, err := NewSnapshot(g, feats, f.ectx.Names, enc, f.m32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRepublish times NewSnapshot (float32) over two
// consecutive published clones through one encoder set, the way an
// ingest daemon republishes. "first" is the snapshot a freshly loaded set
// builds, encoding every row; "later" is the snapshot of the next clone
// after the set built the previous one, encoding only the rows of the
// pulses applied in between.
func BenchmarkSnapshotRepublish(b *testing.B) {
	f := fixture(b)
	prev, next := consecutiveClones(b, f, 3)
	build := func(b *testing.B, t *core.TKG, enc *gnn.EncoderSet) {
		if _, err := NewSnapshot(t.G, t.Features, f.ectx.Names, enc, f.m32); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			enc := freshEncoders(b, f.enc)
			b.StartTimer()
			build(b, next, enc)
		}
	})
	b.Run("later", func(b *testing.B) {
		enc := freshEncoders(b, f.enc)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			build(b, prev, enc)
			b.StartTimer()
			build(b, next, enc)
		}
	})
}

// consecutiveClones returns two clones of the fixture TKG, the second
// taken after the given number of held-out pulses were applied to it:
// the snapshots an ingest pipeline publishes at two consecutive cuts.
func consecutiveClones(b *testing.B, f *fixtureData, pulses int) (prev, next *core.TKG) {
	live, err := f.ectx.TKG.Clone()
	if err != nil {
		b.Fatal(err)
	}
	if prev, err = live.Clone(); err != nil {
		b.Fatal(err)
	}
	later := f.ectx.World.PulsesInMonths(f.ectx.TrainMonths, f.ectx.Opts.World.Months)
	for _, p := range later[:min(pulses, len(later))] {
		live.ApplyPulse(context.Background(), p)
	}
	if next, err = live.Clone(); err != nil {
		b.Fatal(err)
	}
	return prev, next
}

// freshEncoders returns a copy of enc with no memoised codes, as if
// loaded from its checkpoint.
func freshEncoders(b *testing.B, enc *gnn.EncoderSet) *gnn.EncoderSet {
	raw, err := enc.GobEncode()
	if err != nil {
		b.Fatal(err)
	}
	out := &gnn.EncoderSet{}
	if err := out.GobDecode(raw); err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkServeAttributeHTTP drives one /v1/attribute request per
// iteration through Server.Handler with an httptest recorder: JSON
// decode, lookup, table-row read, ranking and JSON encode, without the
// TCP socket.
func BenchmarkServeAttributeHTTP(b *testing.B) {
	srv, err := New(Config{}, fixture(b).loader())
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	key := srv.Snapshot().SampleKeys(graph.KindEvent, 1)[0]
	body, _ := json.Marshal(map[string]any{"kind": "event", "key": key})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/attribute", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}
