package ingest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trail/internal/core"
	"trail/internal/graph"
	"trail/internal/osint"
	"trail/internal/sparse"
)

// BenchmarkPipelineIngest measures streamed events/sec through the full
// pipeline (WAL append + fsync, incremental TKG merge, dirty-frontier
// label propagation) across WAL sync policies: SyncEvery=1 is the
// every-event-durable default, SyncEvery=32 batches fsyncs and shows
// what the bounded power-failure loss window buys.
func BenchmarkPipelineIngest(b *testing.B) {
	cfg := osint.TestConfig()
	w := osint.NewWorld(cfg)
	base := w.Pulses()
	for _, sync := range []int{1, 32} {
		b.Run(fmt.Sprintf("syncEvery=%d", sync), func(b *testing.B) {
			p, err := New(Config{
				Dir:           b.TempDir(),
				Resolver:      w.Resolver(),
				Services:      osint.Infallible(w),
				Build:         core.DefaultBuildConfig(),
				Classes:       len(w.Resolver().Names()),
				Layers:        2,
				EnqueueWait:   -1,
				SyncEvery:     sync,
				PublishEvery:  -1,
				FlushInterval: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			ctx := context.Background()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Unique pulse IDs keep every iteration a fresh event while
				// reusing the world's IOC space, like a long-running feed.
				pulse := base[i%len(base)]
				pulse.ID = fmt.Sprintf("bench-%d-%s", i, pulse.ID)
				if err := p.Submit(ctx, pulse); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Barrier(ctx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// cutWorldBytes lazily builds the 24-month × 180-events/month world
// graph once (full TKG construction over every pulse) and returns its
// serialised form, so each sub-benchmark can restore a pristine copy.
var cutWorldBytes = sync.OnceValue(func() []byte {
	cfg := osint.DefaultConfig()
	cfg.EventsPerMonth = 180
	w := osint.NewWorld(cfg)
	t := core.NewTKG(w, w.Resolver(), core.DefaultBuildConfig())
	ctx := context.Background()
	for _, p := range w.Pulses() {
		if _, err := t.ApplyPulse(ctx, p); err != nil {
			panic(err)
		}
	}
	var buf bytes.Buffer
	if _, err := t.G.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// BenchmarkIngestCut measures cut publication on the 24×180 world: the
// graph-engine work between "delta events arrive" and "a serving
// snapshot chain is ready" — per event, the streaming label-propagation
// operator refresh (LiveCSR + sym normalisation, exactly what the
// pipeline's apply loop runs), then the packed snapshot emission spliced
// from the previous one and its serving-side consumers (float32 cast,
// degree reorder, mean normalisation).
func BenchmarkIngestCut(b *testing.B) {
	base := cutWorldBytes()
	for _, delta := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("delta=%d/patch", delta), func(b *testing.B) {
			g := graph.New()
			if _, err := g.ReadFrom(bytes.NewReader(base)); err != nil {
				b.Fatal(err)
			}
			g.EnableCSRPatch(true)
			rng := rand.New(rand.NewSource(11))
			g.CSR() // warm: the first emission always full-sorts
			seq := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for e := 0; e < delta; e++ {
					// One synthetic event-shaped delta: a fresh event node
					// plus report edges to existing IOCs, interleaved with
					// the operator refresh the apply loop runs per event.
					id, _ := g.Upsert(graph.KindEvent, fmt.Sprintf("cutbench-%d", seq))
					seq++
					n := g.NumNodes()
					for j := 0; j < 8; j++ {
						g.AddEdge(id, graph.NodeID(rng.Intn(n-1)), graph.EdgeInReport)
					}
					if g.LiveCSR().SymNormalized() == nil {
						b.Fatal("nil sym")
					}
				}
				c := sparse.Cast[float32](g.CSR())
				rm, _ := c.Reordered()
				if rm.MeanNormalized() == nil {
					b.Fatal("nil mean")
				}
			}
		})
	}
}
