package eval

import (
	"errors"

	"trail/internal/core"
	"trail/internal/graph"
	"trail/internal/labelprop"
	"trail/internal/ml"
	"trail/internal/osint"
)

// This file holds the evaluation protocol the experiments share: how
// labelled events split into seeds and queries (stratified k-fold or an
// 80/20 holdout, each drawn from the caller's rng offset so its splits
// never move), label propagation over those splits, and the merge of
// study months into a TKG.

// split is one partition of labelled events: the training events in
// order, their labels as the visible seeds, and the test events
// (queries) with their true labels.
type split struct {
	train   []graph.NodeID
	seeds   map[graph.NodeID]int
	queries []graph.NodeID
	truth   []int
}

// eventLabels returns the event node IDs of tkg and their labels.
func eventLabels(tkg *core.TKG) ([]graph.NodeID, []int) {
	events := tkg.EventNodes()
	labels := make([]int, len(events))
	for i, ev := range events {
		labels[i] = tkg.G.Node(ev).Label
	}
	return events, labels
}

// pick returns the events at the given indices and their labels.
func pick(events []graph.NodeID, labels []int, idx []int) ([]graph.NodeID, []int) {
	ids := make([]graph.NodeID, len(idx))
	y := make([]int, len(idx))
	for i, j := range idx {
		ids[i], y[i] = events[j], labels[j]
	}
	return ids, y
}

// newSplit trains on the events at indices train and queries those at
// indices test.
func newSplit(events []graph.NodeID, labels []int, train, test []int) split {
	ids, y := pick(events, labels, train)
	s := split{train: ids, seeds: make(map[graph.NodeID]int, len(ids))}
	for i, id := range ids {
		s.seeds[id] = y[i]
	}
	s.queries, s.truth = pick(events, labels, test)
	return s
}

// kfold splits tkg's events into Opts.Folds stratified folds drawn with
// rng offset off; split i queries fold i and seeds every other fold.
func (c *Context) kfold(tkg *core.TKG, off int64) []split {
	events, labels := eventLabels(tkg)
	folds := ml.StratifiedKFold(c.rng(off), labels, c.Opts.Folds)
	splits := make([]split, len(folds))
	for i, test := range folds {
		splits[i] = newSplit(events, labels, ml.Complement(len(events), test), test)
	}
	return splits
}

// holdout trains on the first 80% of a permutation of the base TKG's
// events drawn with rng offset off, and queries the rest.
func (c *Context) holdout(off int64) split {
	events, labels := eventLabels(c.TKG)
	idx := c.rng(off).Perm(len(events))
	cut := len(events) * 4 / 5
	return newSplit(events, labels, idx[:cut], idx[cut:])
}

// lpSplits runs label propagation at the given depth over tkg on every
// split (the k folds, or any seeds/queries partition), returning each
// split's accuracy and balanced accuracy.
func (c *Context) lpSplits(tkg *core.TKG, splits []split, layers int) (accs, baccs []float64) {
	csr := tkg.G.CSR()
	for _, s := range splits {
		pred := labelprop.AttributeCSR(csr, s.seeds, s.queries, c.Classes, layers)
		accs = append(accs, ml.Accuracy(s.truth, pred))
		baccs = append(baccs, ml.BalancedAccuracy(s.truth, pred, c.Classes))
	}
	return accs, baccs
}

// mergePulses merges pulses into tkg, finalises its labels, and returns
// the new events with their labels. Skipped pulses are left out; any
// other AddPulse error is returned, as TKG.Build does.
func mergePulses(tkg *core.TKG, pulses []osint.Pulse) ([]graph.NodeID, []int, error) {
	var events []graph.NodeID
	for _, p := range pulses {
		ev, err := tkg.AddPulse(p)
		if errors.Is(err, core.ErrSkipped) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		events = append(events, ev)
	}
	tkg.FinalizeLabels()
	truth := make([]int, len(events))
	for i, ev := range events {
		truth[i] = tkg.G.Node(ev).Label
	}
	return events, truth, nil
}
