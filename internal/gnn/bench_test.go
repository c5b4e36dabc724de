package gnn

import (
	"fmt"
	"math/rand"
	"testing"

	"trail/internal/graph"
	"trail/internal/mat"
)

// benchInput builds a mid-sized synthetic attribution graph (no testing.T
// so it can serve benches): `classes` APT classes, `eventsPerClass` event
// nodes each wired to 3 class-biased IOCs. Shapes are chosen so the
// epoch benches exercise the same kernel mix as the Table IV runs.
func benchInput(classes, eventsPerClass, iocsPerClass, encDim int) (Input, []graph.NodeID) {
	g := graph.New()
	rng := rand.New(rand.NewSource(7))
	var encRows [][]float64
	var events []graph.NodeID

	iocIDs := make([][]graph.NodeID, classes)
	for c := 0; c < classes; c++ {
		for k := 0; k < iocsPerClass; k++ {
			id, _ := g.Upsert(graph.KindIP, fmt.Sprintf("ip-%d-%d", c, k))
			iocIDs[c] = append(iocIDs[c], id)
			row := make([]float64, encDim)
			for j := range row {
				row[j] = rng.NormFloat64() * 0.3
			}
			row[c%encDim] += 2
			encRows = append(encRows, row)
		}
	}
	for c := 0; c < classes; c++ {
		for e := 0; e < eventsPerClass; e++ {
			id, _ := g.Upsert(graph.KindEvent, fmt.Sprintf("ev-%d-%d", c, e))
			g.UpdateNode(id, func(n *graph.Node) { n.Label = c })
			events = append(events, id)
			encRows = append(encRows, make([]float64, encDim))
			for k := 0; k < 3; k++ {
				tgt := iocIDs[c][rng.Intn(len(iocIDs[c]))]
				g.AddEdge(id, tgt, graph.EdgeInReport)
			}
		}
	}
	enc := mat.New(g.NumNodes(), encDim)
	for i, row := range encRows {
		copy(enc.Row(i), row)
	}
	in := Input{
		CSR:     g.CSR(),
		Enc:     enc,
		IsEvent: make([]bool, g.NumNodes()),
		Labels:  make([]int, g.NumNodes()),
		Classes: classes,
	}
	for i := range in.Labels {
		in.Labels[i] = -1
	}
	g.ForEachNode(func(n graph.Node) {
		if n.Kind == graph.KindEvent {
			in.IsEvent[n.ID] = true
			in.Labels[n.ID] = n.Label
		}
	})
	return in, events
}

func benchConfig(layers, epochs int) Config {
	return Config{Layers: layers, Hidden: 64, Encoding: 64, LR: 5e-3, Epochs: epochs, Seed: 1}
}

// BenchmarkSAGETrain measures full GraphSAGE training (12 epochs, 2
// layers) over the bench graph — the steady-state epoch loop whose
// allocations this package's workspace pooling is meant to eliminate.
func BenchmarkSAGETrain(b *testing.B) {
	in, events := benchInput(6, 60, 120, 64)
	cfg := benchConfig(2, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(in, events, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGCNTrain is BenchmarkSAGETrain for the GCN baseline.
func BenchmarkGCNTrain(b *testing.B) {
	in, events := benchInput(6, 60, 120, 64)
	cfg := benchConfig(2, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainGCN(in, events, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSAGEPredict measures the inference hot path: one full-graph
// forward pass plus per-query softmax, as the eval tables run it
// hundreds of times per sweep.
func BenchmarkSAGEPredict(b *testing.B) {
	in, events := benchInput(6, 60, 120, 64)
	cfg := benchConfig(2, 12)
	m, err := Train(in, events, cfg)
	if err != nil {
		b.Fatal(err)
	}
	visible := make(map[graph.NodeID]int, len(events)/2)
	for _, ev := range events[:len(events)/2] {
		visible[ev] = in.Labels[ev]
	}
	queries := events[len(events)/2:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds := m.Predict(in, visible, queries)
		if len(preds) != len(queries) {
			b.Fatal("short prediction")
		}
	}
}

// BenchmarkAEFit measures autoencoder training (the per-IOC-kind encoder
// loop of Eq. 5) on a feature matrix shaped like the URL kind.
func BenchmarkAEFit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	X := mat.RandNormal(rng, 2000, 48, 0, 1)
	cfg := DefaultAEConfig()
	cfg.Epochs = 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ae := NewAutoencoder(cfg)
		if err := ae.Fit(X); err != nil {
			b.Fatal(err)
		}
	}
}

// Float32 counterparts of the training/inference benches, for the
// precision bandwidth table: same graph, same epochs, half the bytes
// through every kernel.

func BenchmarkSAGETrain32(b *testing.B) {
	in, events := benchInput(6, 60, 120, 64)
	in32 := CastInput[float32](in)
	cfg := benchConfig(2, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(in32, events, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGCNTrain32(b *testing.B) {
	in, events := benchInput(6, 60, 120, 64)
	in32 := CastInput[float32](in)
	cfg := benchConfig(2, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainGCN(in32, events, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSAGEPredict32(b *testing.B) {
	in, events := benchInput(6, 60, 120, 64)
	in32 := CastInput[float32](in)
	cfg := benchConfig(2, 12)
	m, err := Train(in32, events, cfg)
	if err != nil {
		b.Fatal(err)
	}
	visible := make(map[graph.NodeID]int, len(events)/2)
	for _, ev := range events[:len(events)/2] {
		visible[ev] = in32.Labels[ev]
	}
	queries := events[len(events)/2:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds := m.Predict(in32, visible, queries)
		if len(preds) != len(queries) {
			b.Fatal("short prediction")
		}
	}
}
