package serve

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/mat"
)

// TestSnapshotTableMatchesPredictProba is the oracle for the answer
// table: on seeded random batches — duplicates included, every node kind
// present — Snapshot.Attribute returns exactly the rows a fresh
// model.PredictProbaInto pass computes for the same queries, bit for
// bit, at both precisions and on every snapshot a reloading loader
// hands out.
func TestSnapshotTableMatchesPredictProba(t *testing.T) {
	f := fixture(t)
	g := f.ectx.TKG.G
	in := gnn.BuildInput(g, f.ectx.TKG.Features, f.enc, f.ectx.Classes)
	in32 := gnn.CastInput[float32](in)
	visible := f.ectx.TKG.EventSeeds()
	var byKind [][]graph.NodeID
	for _, k := range []graph.NodeKind{graph.KindEvent, graph.KindIP, graph.KindURL, graph.KindDomain, graph.KindASN} {
		if ids := g.NodesOfKind(k); len(ids) > 0 {
			byKind = append(byKind, ids)
		}
	}
	if len(byKind) < 4 {
		t.Fatalf("fixture graph has only %d node kinds", len(byKind))
	}
	rng := rand.New(rand.NewSource(19))
	batch := func() []graph.NodeID {
		var q []graph.NodeID
		for _, ids := range byKind {
			q = append(q, ids[rng.Intn(len(ids))])
		}
		for n := rng.Intn(40); n > 0; n-- {
			q = append(q, graph.NodeID(rng.Intn(g.NumNodes())))
		}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			q = append(q, q[rng.Intn(len(q))])
		}
		rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		return q
	}

	snaps := []*Snapshot{f.snapshot64(t), f.snapshot32(t)}
	load := f.alternatingLoader()
	for i := 0; i < 4; i++ {
		snap, err := load()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	for si, snap := range snaps {
		for b := 0; b < 3; b++ {
			q := batch()
			var want [][]float64
			switch snap.Precision {
			case "float64":
				want = predictRows(f.model, in, visible, q)
			case "float32":
				want = predictRows(f.m32, in32, visible, q)
			default:
				t.Fatalf("snapshot %d: precision %q", si, snap.Precision)
			}
			got := make([][]float64, len(q))
			for i := range got {
				got[i] = make([]float64, snap.Classes())
			}
			snap.Attribute(q, got)
			for i := range q {
				for c := range got[i] {
					if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
						t.Fatalf("snapshot %d (%s), node %d, class %d: table %v, PredictProbaInto %v",
							si, snap.Precision, q[i], c, got[i][c], want[i][c])
					}
				}
			}
		}
	}
}

// predictRows runs one fresh PredictProbaInto pass over queries and
// widens its rows to float64.
func predictRows[T mat.Float](m *gnn.ModelOf[T], in gnn.InputOf[T], visible map[graph.NodeID]int, queries []graph.NodeID) [][]float64 {
	ws := mat.NewWorkspaceOf[T]()
	defer ws.Release()
	dst := m.PredictProbaInto(mat.NewOf[T](len(queries), m.Classes()), in, visible, queries, ws)
	out := make([][]float64, len(queries))
	for i := range out {
		out[i] = make([]float64, dst.Cols)
		for c, v := range dst.Row(i) {
			out[i][c] = float64(v)
		}
	}
	return out
}

// TestLoadModelDirPrecision: the serving precision follows the training
// directory — missing artefacts name the `trail train -dir` fix,
// model.ck alone serves float64 with a notice, and model.f32.ck is
// preferred once present.
func TestLoadModelDirPrecision(t *testing.T) {
	f := fixture(t)
	dir := t.TempDir()
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	load := func() (*Snapshot, error) {
		build, err := LoadModelDir(dir, f.ectx.Names, logf)
		if err != nil {
			return nil, err
		}
		return build(f.ectx.TKG.G, f.ectx.TKG.Features)
	}

	if _, err := load(); err == nil || !strings.Contains(err.Error(), "trail train -dir") {
		t.Fatalf("no encoders: want a `trail train -dir` hint, got %v", err)
	}
	if err := gnn.SaveEncoders(filepath.Join(dir, EncodersFile), f.enc); err != nil {
		t.Fatal(err)
	}
	if _, err := load(); err == nil || !strings.Contains(err.Error(), "trail train -dir") {
		t.Fatalf("no model: want a `trail train -dir` hint, got %v", err)
	}

	if err := gnn.SaveModel(filepath.Join(dir, ModelFile), f.model); err != nil {
		t.Fatal(err)
	}
	snap, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Precision != "float64" || !strings.Contains(logs[len(logs)-1], "serving at float64") {
		t.Fatalf("model.ck only: precision %s, last log %q", snap.Precision, logs[len(logs)-1])
	}

	if err := gnn.SaveModel(filepath.Join(dir, ModelF32File), f.m32); err != nil {
		t.Fatal(err)
	}
	if snap, err = load(); err != nil {
		t.Fatal(err)
	}
	if snap.Precision != "float32" || !strings.Contains(logs[len(logs)-1], "float32 model") {
		t.Fatalf("with model.f32.ck: precision %s, last log %q", snap.Precision, logs[len(logs)-1])
	}
}
