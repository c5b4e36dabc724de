package core

import (
	"context"

	"trail/internal/graph"
	"trail/internal/ioc"
	"trail/internal/osint"
)

// ApplyPulse merges one incident report and immediately re-finalises the
// derived labels of exactly the IOCs it touched — the streaming
// equivalent of AddPulse followed by FinalizeLabels, reaching the same
// TKG state without the per-event full-sweep cost (the sweep is O(all
// labelled IOCs); this is O(IOCs in the pulse)). The equivalence holds
// because finalisation is idempotent and an IOC's derived state only
// changes when a new event attaches to it, which always lands it in the
// touched set.
//
// ctx bounds enrichment for this one pulse: cancellation makes in-flight
// lookups fail fast (degrading the affected nodes) rather than blocking
// a drain.
func (t *TKG) ApplyPulse(ctx context.Context, p osint.Pulse) (graph.NodeID, error) {
	t.buildCtx = ctx
	t.trackTouched = true
	t.touched = t.touched[:0]
	defer func() {
		t.trackTouched = false
		t.buildCtx = context.Background()
	}()
	id, err := t.AddPulse(p)
	if err != nil {
		return id, err
	}
	for _, ioc := range t.touched {
		t.finalizeOne(ioc)
	}
	return id, nil
}

// RepairDegraded re-attempts feature enrichment for up to max Degraded
// IOC nodes (all of them when max <= 0): the catch-up loop behind
// streaming ingest's degradation ladder. A node whose extraction now
// succeeds without provider errors gets measured features, feeds the
// imputer's running mean, and drops its Degraded flag; nodes that still
// fail stay flagged for the next pass. Relation expansion is not redone
// — repairs restore feature quality, not missed edges — so the graph
// structure (and any incremental label-propagation state derived from
// it) is untouched.
//
// Repairs are in-memory state only: they become durable at the next
// checkpoint cut, and after a crash the affected nodes simply reload as
// Degraded and are repaired again — the operation is idempotent.
func (t *TKG) RepairDegraded(ctx context.Context, max int) (repaired, attempted int) {
	var cands []graph.Node
	t.G.ForEachNode(func(n graph.Node) {
		if n.Degraded && (max <= 0 || len(cands) < max) {
			cands = append(cands, n)
		}
	})
	if len(cands) == 0 {
		return 0, 0
	}
	t.buildCtx = ctx
	defer func() { t.buildCtx = context.Background() }()
	for _, n := range cands {
		if ctx.Err() != nil {
			return repaired, attempted
		}
		item, ok := iocOf(n)
		if !ok {
			continue
		}
		attempted++
		before := t.enrichErrs.Load()
		v, found := t.Extractor.Extract(item)
		if v == nil || t.enrichErrs.Load() > before {
			continue // still failing: keep the imputed vector and the flag
		}
		if found {
			t.imp.observe(item.Type, v)
		}
		t.Features[n.ID] = v
		t.G.UpdateNode(n.ID, func(nn *graph.Node) { nn.Degraded = false })
		if t.report.DegradedByKind[n.Kind] > 0 {
			t.report.DegradedByKind[n.Kind]--
		}
		repaired++
	}
	return repaired, attempted
}

// iocOf reconstructs the IOC behind a node record — the inverse of
// KindOf for the feature-bearing kinds.
func iocOf(n graph.Node) (ioc.IOC, bool) {
	switch n.Kind {
	case graph.KindIP:
		return ioc.IOC{Type: ioc.TypeIP, Value: n.Key}, true
	case graph.KindURL:
		return ioc.IOC{Type: ioc.TypeURL, Value: n.Key}, true
	case graph.KindDomain:
		return ioc.IOC{Type: ioc.TypeDomain, Value: n.Key}, true
	default:
		return ioc.IOC{}, false
	}
}

// EventSeeds returns the labelled event nodes as a label-propagation
// seed map — the seed set streaming ingest maintains incrementally and
// rebuilds from scratch on recovery.
func (t *TKG) EventSeeds() map[graph.NodeID]int {
	seeds := make(map[graph.NodeID]int)
	t.G.ForEachNode(func(n graph.Node) {
		if n.Kind == graph.KindEvent && n.Label >= 0 {
			seeds[n.ID] = n.Label
		}
	})
	return seeds
}
