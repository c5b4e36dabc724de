package gnn

import (
	"testing"

	"trail/internal/graph"
)

func TestExplainerWeightsAndRanking(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 3, 10, 5)
	var train []graph.NodeID
	for _, evs := range byClass {
		train = append(train, evs...)
	}
	m, err := Train(in, train, Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := byClass[1][0]
	visible := map[graph.NodeID]int{}
	for _, ev := range train {
		if ev != target {
			visible[ev] = in.Labels[ev]
		}
	}
	pred := m.Predict(in, visible, []graph.NodeID{target})[0]

	cfg := DefaultExplainerConfig()
	cfg.Epochs = 30
	exp := m.Explain(in, visible, target, pred, cfg)

	if len(exp.Edges) == 0 || len(exp.Nodes) == 0 {
		t.Fatal("empty explanation")
	}
	if len(exp.Edges) != len(exp.Weights) {
		t.Fatal("edges/weights length mismatch")
	}
	for i, w := range exp.Weights {
		if w < 0 || w > 1 {
			t.Fatalf("edge weight %v out of [0,1]", w)
		}
		if i > 0 && w > exp.Weights[i-1]+1e-9 {
			t.Fatal("edge weights not sorted descending")
		}
	}
	for i := 1; i < len(exp.NodeWeights); i++ {
		if exp.NodeWeights[i] > exp.NodeWeights[i-1]+1e-9 {
			t.Fatal("node weights not sorted descending")
		}
	}
	// Every explained edge must lie within the target's L-hop
	// neighbourhood.
	dist := graph.BFSDistances(in.CSR, target, m.Config.Layers)
	for _, e := range exp.Edges {
		if dist[e[0]] < 0 || dist[e[1]] < 0 {
			t.Fatalf("edge %v outside the %d-hop subgraph", e, m.Config.Layers)
		}
	}
}

func TestExplainerMaskActuallyDiscriminates(t *testing.T) {
	in, byClass := buildToyAttributionGraph(t, 2, 10, 4)
	var train []graph.NodeID
	for _, evs := range byClass {
		train = append(train, evs...)
	}
	m, err := Train(in, train, Config{Layers: 2, Hidden: 16, Encoding: 16, LR: 1e-2, Epochs: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	target := byClass[0][0]
	pred := m.Predict(in, nil, []graph.NodeID{target})[0]
	cfg := DefaultExplainerConfig()
	cfg.Epochs = 50
	cfg.SizeWeight = 0.05
	exp := m.Explain(in, nil, target, pred, cfg)
	// With a sparsity penalty, the optimiser must separate weights: the
	// spread between strongest and weakest retained edge should be real.
	if len(exp.Weights) >= 2 {
		spread := exp.Weights[0] - exp.Weights[len(exp.Weights)-1]
		if spread < 0.01 {
			t.Fatalf("mask did not discriminate: spread %.4f", spread)
		}
	}
}
