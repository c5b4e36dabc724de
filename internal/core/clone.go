package core

import (
	"bytes"

	"trail/internal/apt"
	"trail/internal/graph"
)

// Clone returns a copy of the TKG sharing the same enrichment services.
// The graph, the event-membership bookkeeping and the build report are
// deep-copied; the feature vectors are shared, read-only: a TKG replaces
// a node's vector (featurize, RepairDegraded), it never writes into one.
// The clone serialises to the same bytes as t (WriteTo). The longitudinal
// experiments use clones to merge future months into the graph without
// disturbing the base TKG the other experiments read; streaming ingest
// publishes and hands out its state through them.
func (t *TKG) Clone() (*TKG, error) {
	var buf bytes.Buffer
	if _, err := t.G.WriteTo(&buf); err != nil {
		return nil, err
	}
	g := graph.New()
	if _, err := g.ReadFrom(&buf); err != nil {
		return nil, err
	}
	features := make(map[graph.NodeID][]float64, len(t.Features))
	for id, v := range t.Features {
		features[id] = v
	}
	eventAPTs := make(map[graph.NodeID]map[apt.ID]bool, len(t.eventAPTs))
	for id, set := range t.eventAPTs {
		cp := make(map[apt.ID]bool, len(set))
		for k, v := range set {
			cp[k] = v
		}
		eventAPTs[id] = cp
	}
	nt := NewTKGFallible(t.fsvc, t.Resolver, t.Config)
	nt.G = g
	nt.Features = features
	nt.SkippedPulses = t.SkippedPulses
	nt.eventAPTs = eventAPTs
	nt.report = t.report
	nt.report.DegradedByKind = make(map[graph.NodeKind]int, len(t.report.DegradedByKind))
	for k, v := range t.report.DegradedByKind {
		nt.report.DegradedByKind[k] = v
	}
	nt.enrichErrs.Store(t.enrichErrs.Load())
	return nt, nil
}
