package serve

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/ingest"
	"trail/internal/osint"
)

// TestPublishedSnapshotsMatchFreshBuild is the end-to-end memo oracle.
// A streaming ingest pipeline publishes clones that share the live
// TKG's feature vectors, and one long-lived encoder set builds every
// snapshot, re-encoding only new or repaired vectors. Each published
// snapshot's answer table must be bit-identical to NewSnapshot over a
// copy decoded from the clone's bytes (ReadTKGFallible: no vector
// shared) with freshly loaded encoders. The enrichment stack fails
// transiently, so the repair loop replaces degraded vectors between
// publishes.
func TestPublishedSnapshotsMatchFreshBuild(t *testing.T) {
	f := fixture(t)
	dir := t.TempDir()
	basePath := filepath.Join(dir, TKGFile)
	if err := f.ectx.TKG.Save(basePath); err != nil {
		t.Fatal(err)
	}
	encPath := filepath.Join(dir, EncodersFile)
	if err := gnn.SaveEncoders(encPath, f.enc); err != nil {
		t.Fatal(err)
	}
	longLived, err := gnn.LoadEncoders(encPath)
	if err != nil {
		t.Fatal(err)
	}
	w := f.ectx.World
	svc := osint.NewChaosServices(w, osint.ChaosConfig{Seed: 5, TransientRate: 0.2})

	var publishes, compared atomic.Int64
	p, err := ingest.New(ingest.Config{
		Dir:            filepath.Join(dir, "ingest"),
		Resolver:       w.Resolver(),
		Services:       svc,
		Build:          core.DefaultBuildConfig(),
		BasePath:       basePath,
		Classes:        f.ectx.Classes,
		Layers:         2,
		EnqueueWait:    -1,
		PublishEvery:   2,
		FlushInterval:  -1,
		RepairInterval: time.Millisecond,
		Logf:           t.Logf,
		Publish: func(tkg *core.TKG, wm uint64) {
			publishes.Add(1)
			got, err := NewSnapshot(tkg.G, tkg.Features, f.ectx.Names, longLived, f.model)
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			if _, err := tkg.WriteTo(&buf); err != nil {
				t.Error(err)
				return
			}
			fresh, err := core.ReadTKGFallible(&buf, svc, w.Resolver())
			if err != nil {
				t.Error(err)
				return
			}
			enc, err := gnn.LoadEncoders(encPath)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := NewSnapshot(fresh.G, fresh.Features, f.ectx.Names, enc, f.model)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got.table) != len(want.table) {
				t.Errorf("watermark %d: table has %d entries, fresh build %d", wm, len(got.table), len(want.table))
				return
			}
			for i := range got.table {
				if math.Float64bits(got.table[i]) != math.Float64bits(want.table[i]) {
					t.Errorf("watermark %d: table entry %d = %v, fresh build %v", wm, i, got.table[i], want.table[i])
					return
				}
			}
			compared.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, pulse := range w.PulsesInMonths(f.ectx.TrainMonths, f.ectx.Opts.World.Months) {
		if err := p.Submit(ctx, pulse); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	t.Logf("compared %d published snapshots over %d applied events", compared.Load(), st.Applied)
	if compared.Load() < 2 || compared.Load() != publishes.Load() {
		t.Fatalf("%d of %d published snapshots compared (applied %d events); the oracle needs at least 2",
			compared.Load(), publishes.Load(), st.Applied)
	}
}
