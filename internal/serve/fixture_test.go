package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"trail/internal/eval"
	"trail/internal/gnn"
)

// fixtureData is the shared serving corpus: a small test world's TKG and
// a model trained on it, built once per test binary (training dominates
// the package's test time otherwise).
type fixtureData struct {
	ectx  *eval.Context
	enc   *gnn.EncoderSet
	model *gnn.Model
	m32   *gnn.ModelOf[float32]
	err   error
}

var (
	fixOnce sync.Once
	fix     fixtureData
)

func fixture(t testing.TB) *fixtureData {
	t.Helper()
	fixOnce.Do(func() {
		ectx, err := eval.NewContext(eval.TestOptions())
		if err != nil {
			fix.err = err
			return
		}
		aeCfg := gnn.DefaultAEConfig()
		aeCfg.Epochs, aeCfg.Hidden, aeCfg.Encoding = 2, 32, 32
		enc, err := gnn.TrainEncodersCtx(context.Background(), ectx.TKG.G, ectx.TKG.Features, aeCfg, gnn.EncoderTrainOpts{})
		if err != nil {
			fix.err = err
			return
		}
		in := gnn.BuildInput(ectx.TKG.G, ectx.TKG.Features, enc, ectx.Classes)
		cfg := gnn.Config{Layers: 2, Hidden: 16, Encoding: aeCfg.Encoding, LR: 1e-2, Epochs: 6, Seed: 1}
		model, err := gnn.TrainCtx(in, ectx.TKG.EventNodes(), cfg, gnn.TrainOpts{})
		if err != nil {
			fix.err = err
			return
		}
		fix = fixtureData{ectx: ectx, enc: enc, model: model, m32: gnn.CastModel[float32](model)}
	})
	if fix.err != nil {
		t.Fatal(fix.err)
	}
	return &fix
}

// snapshot64 / snapshot32 build fresh snapshots of each precision.
func (f *fixtureData) snapshot64(t testing.TB) *Snapshot {
	t.Helper()
	s, err := NewSnapshot(f.ectx.TKG.G, f.ectx.TKG.Features, f.ectx.Names, f.enc, f.model)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (f *fixtureData) snapshot32(t testing.TB) *Snapshot {
	t.Helper()
	s, err := NewSnapshot(f.ectx.TKG.G, f.ectx.TKG.Features, f.ectx.Names, f.enc, f.m32)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loader serves the float64 snapshot on every call.
func (f *fixtureData) loader() Loader {
	return func() (*Snapshot, error) {
		return NewSnapshot(f.ectx.TKG.G, f.ectx.TKG.Features, f.ectx.Names, f.enc, f.model)
	}
}

// alternatingLoader switches precision on every call — float64 first (the
// startup load), float32 on the first reload, and so on. The reload
// hammer uses the precision difference as a tracer: every answer must
// match exactly one precision's reference, and one epoch must never mix.
func (f *fixtureData) alternatingLoader() Loader {
	var calls atomic.Uint64
	return func() (*Snapshot, error) {
		if calls.Add(1)%2 == 1 {
			return NewSnapshot(f.ectx.TKG.G, f.ectx.TKG.Features, f.ectx.Names, f.enc, f.model)
		}
		return NewSnapshot(f.ectx.TKG.G, f.ectx.TKG.Features, f.ectx.Names, f.enc, f.m32)
	}
}
