package eval

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"trail/internal/gnn"
	"trail/internal/graph"
)

// This file implements the extensions the paper's Discussion section (§IX)
// leaves as future work:
//
//  1. Confidence thresholding: refuse to attribute when the model's
//     confidence is below a threshold, so events from unknown APTs (or
//     benign noise) are classified "out of distribution" instead of being
//     forced onto one of the 22 trained classes.
//  2. Zero-shot label propagation: because LP is non-parametric, labelled
//     events of a never-trained group can be merged into the TKG and used
//     to attribute future events of that group with no retraining.

// ThresholdPoint is one operating point of the thresholding study.
type ThresholdPoint struct {
	Threshold float64
	// KnownAccuracy is accuracy on known-APT events among those the model
	// chose to attribute.
	KnownAccuracy float64
	// KnownCoverage is the fraction of known-APT events attributed at all.
	KnownCoverage float64
	// UnknownRejected is the fraction of held-out-APT events correctly
	// refused ("unknown / out of distribution").
	UnknownRejected float64
}

// UnknownAPTResult is the confidence-thresholding study.
type UnknownAPTResult struct {
	HeldOutAPT string
	Points     []ThresholdPoint
}

// Render prints the threshold sweep.
func (r *UnknownAPTResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Unknown-APT thresholding (§IX future work), held-out group %s:\n", r.HeldOutAPT)
	fmt.Fprintf(&b, "%10s %14s %14s %16s\n", "threshold", "known-acc", "known-cover", "unknown-reject")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10.2f %14.3f %14.3f %16.3f\n",
			p.Threshold, p.KnownAccuracy, p.KnownCoverage, p.UnknownRejected)
	}
	return b.String()
}

// RunUnknownAPTStudy rebuilds the TKG with one APT's events excluded from
// training, trains the GNN on the remaining 21 classes, then measures how
// a confidence threshold trades coverage on known groups against
// rejection of the held-out group's events.
func RunUnknownAPTStudy(ctx *Context, heldOut string) (*UnknownAPTResult, error) {
	if heldOut == "" {
		heldOut = "APT41"
	}
	heldClass, err := ctx.classOf(heldOut)
	if err != nil {
		return nil, err
	}

	// The TKG itself may contain the held-out group's events (they exist
	// in the wild); only training excludes them.
	set, err := ctx.encoders()
	if err != nil {
		return nil, err
	}
	in := gnn.BuildInput(ctx.TKG.G, ctx.TKG.Features, set, ctx.Classes)
	events, labels := eventLabels(ctx.TKG)

	var train, knownTest, unknownTest []graph.NodeID
	var knownTruth []int
	visible := make(map[graph.NodeID]int)
	rng := ctx.rng(800)
	for i, ev := range events {
		switch {
		case labels[i] == heldClass:
			unknownTest = append(unknownTest, ev)
		case rng.Float64() < 0.2:
			knownTest = append(knownTest, ev)
			knownTruth = append(knownTruth, labels[i])
		default:
			train = append(train, ev)
			visible[ev] = labels[i]
		}
	}
	if len(unknownTest) == 0 {
		return nil, fmt.Errorf("eval: no %s events in the TKG", heldOut)
	}
	model, err := gnn.TrainCtx(in, train, ctx.GNNConfig(2), gnn.TrainOpts{})
	if err != nil {
		return nil, err
	}

	knownPred := model.Predict(in, visible, knownTest)
	knownConf := model.Confidence(in, visible, knownTest)
	unknownConf := model.Confidence(in, visible, unknownTest)

	res := &UnknownAPTResult{HeldOutAPT: heldOut}
	for _, thr := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9} {
		var attributed, correct int
		for i := range knownTest {
			if knownConf[i] >= thr {
				attributed++
				if knownPred[i] == knownTruth[i] {
					correct++
				}
			}
		}
		rejected := 0
		for _, c := range unknownConf {
			if c < thr {
				rejected++
			}
		}
		p := ThresholdPoint{
			Threshold:       thr,
			UnknownRejected: float64(rejected) / float64(len(unknownTest)),
		}
		if len(knownTest) > 0 {
			p.KnownCoverage = float64(attributed) / float64(len(knownTest))
		}
		if attributed > 0 {
			p.KnownAccuracy = float64(correct) / float64(attributed)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// ZeroShotResult is the non-parametric LP study: attribute events of a
// group whose labelled data arrived after the parametric models were
// trained.
type ZeroShotResult struct {
	APT string
	// SeedEvents is how many of the new group's events were merged as
	// labelled seeds.
	SeedEvents int
	// TestEvents is how many held-back events of the group were queried.
	TestEvents int
	// LPAccuracy is label propagation's accuracy on the held-back events
	// with the new seeds present — no retraining anywhere.
	LPAccuracy float64
	// LPAccuracyWithoutSeeds is the control: accuracy when the group's
	// seeds are absent (LP can only answer with other groups, so this is
	// the forced-error baseline).
	LPAccuracyWithoutSeeds float64
}

// Render prints the zero-shot comparison.
func (r *ZeroShotResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Zero-shot LP for a new group (§IX): %s\n", r.APT)
	fmt.Fprintf(&b, "  %d seed events merged, %d events queried\n", r.SeedEvents, r.TestEvents)
	fmt.Fprintf(&b, "  LP accuracy with new seeds:    %.3f\n", r.LPAccuracy)
	fmt.Fprintf(&b, "  LP accuracy without the seeds: %.3f (forced errors)\n", r.LPAccuracyWithoutSeeds)
	return b.String()
}

// RunZeroShotLP demonstrates the paper's claim that label propagation
// needs no retraining for new APTs: the chosen group's events are split
// into seeds and queries inside the existing TKG.
func RunZeroShotLP(ctx *Context, aptName string) (*ZeroShotResult, error) {
	if aptName == "" {
		aptName = "GAMAREDON"
	}
	class, err := ctx.classOf(aptName)
	if err != nil {
		return nil, err
	}
	events, labels := eventLabels(ctx.TKG)
	var group, others []int
	for i := range events {
		if labels[i] == class {
			group = append(group, i)
		} else {
			others = append(others, i)
		}
	}
	if len(group) < 4 {
		return nil, errors.New("eval: too few events of the chosen group")
	}
	// Seeds: every other group's events, plus half of the group's in
	// the with-seeds run; queries: the group's other half.
	half := len(group) / 2
	with := newSplit(events, labels, slices.Concat(others, group[:half]), group[half:])
	without := newSplit(events, labels, others, group[half:])
	accs, _ := ctx.lpSplits(ctx.TKG, []split{with, without}, 4)

	return &ZeroShotResult{
		APT:                    aptName,
		SeedEvents:             half,
		TestEvents:             len(with.queries),
		LPAccuracy:             accs[0],
		LPAccuracyWithoutSeeds: accs[1],
	}, nil
}
