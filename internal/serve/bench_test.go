package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
// precision (float32): input build plus the one full-graph forward pass
// that fills the answer table — the cost every reload and ingest publish
// pays.
func BenchmarkServeSnapshotBuild(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.snapshot32(b)
	}
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
