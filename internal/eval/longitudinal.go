package eval

import (
	"errors"
	"fmt"
	"strings"

	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/ioc"
	"trail/internal/labelprop"
	"trail/internal/ml"
	"trail/internal/osint"
)

// trainBaseGNN trains (or returns the cached) production GNN on the base
// TKG: the case study, Figs. 7-8 and Fig. 10 all share it.
func (c *Context) trainBaseGNN(layers int) (*gnn.EncoderSet, gnn.Input, *gnn.Model, error) {
	c.baseGNNMu.Lock()
	defer c.baseGNNMu.Unlock()
	if b, ok := c.baseGNN[layers]; ok {
		return b.set, b.in, b.model, nil
	}

	aeCfg := aeConfigFor(c)
	gcfg := gnn.Config{
		Layers: layers, Hidden: 64, Encoding: aeCfg.Encoding,
		LR: 1e-2, Epochs: 60, Seed: c.Opts.Seed,
	}
	if c.Opts.Fast {
		gcfg.Hidden = 16
		gcfg.Epochs = 10
	}
	set, err := gnn.TrainEncoders(c.TKG.G, c.TKG.Features, aeCfg)
	if err != nil {
		return nil, gnn.Input{}, nil, err
	}
	in := gnn.BuildInput(c.TKG.G, c.TKG.Features, set, c.Classes)
	events := c.TKG.EventNodes()
	model, err := gnn.Train(in, events, gcfg)
	if err != nil {
		return nil, gnn.Input{}, nil, err
	}
	if c.baseGNN == nil {
		c.baseGNN = make(map[int]*baseGNNBundle)
	}
	c.baseGNN[layers] = &baseGNNBundle{set: set, in: in, model: model}
	return set, in, model, nil
}

// visibleLabels returns a visibility map for every labelled event in g.
func visibleLabels(g *graph.Graph) map[graph.NodeID]int {
	vis := make(map[graph.NodeID]int)
	g.ForEachNode(func(n graph.Node) {
		if n.Kind == graph.KindEvent && n.Label >= 0 {
			vis[n.ID] = n.Label
		}
	})
	return vis
}

// CaseStudyResult reproduces §VII-C (Figs. 5-6): a never-seen event is
// merged into the TKG, enriched, and attributed by LP and by the GNN with
// and without neighbour labels.
type CaseStudyResult struct {
	PulseID      string
	TrueAPT      string
	ReportedIOCs int
	// EnrichedIOCs counts the event's IOCs after enrichment (2-hop
	// neighbourhood of the new event node).
	EnrichedIOCs int
	// EventsAt2Hops / EventsAt3Hops list APT names of attributed events
	// near the new node, as in Figs. 5-6.
	EventsAt2Hops map[string]int
	EventsAt3Hops map[string]int
	// LPPrediction is the label-propagation attribution (4 layers).
	LPPrediction string
	// GNN confidences for the true class, without and with neighbour
	// labels visible (the paper reports 48% -> 88%).
	GNNConfBlind   float64
	GNNConfVisible float64
	GNNPredBlind   string
	GNNPredVisible string
}

// Render prints the case-study narrative.
func (r *CaseStudyResult) Render() string {
	var b strings.Builder
	b.WriteString("Case study (Figs. 5-6): attributing a new event\n")
	fmt.Fprintf(&b, "  pulse %s, ground truth %s\n", r.PulseID, r.TrueAPT)
	fmt.Fprintf(&b, "  reported IOCs: %d, after enrichment (2-hop): %d\n", r.ReportedIOCs, r.EnrichedIOCs)
	fmt.Fprintf(&b, "  attributed events 2 hops away: %v\n", r.EventsAt2Hops)
	fmt.Fprintf(&b, "  attributed events 3 hops away: %v\n", r.EventsAt3Hops)
	fmt.Fprintf(&b, "  label propagation (4L) prediction: %s\n", r.LPPrediction)
	fmt.Fprintf(&b, "  GNN without neighbour labels: %s (true-class confidence %.2f)\n", r.GNNPredBlind, r.GNNConfBlind)
	fmt.Fprintf(&b, "  GNN with neighbour labels:    %s (true-class confidence %.2f)\n", r.GNNPredVisible, r.GNNConfVisible)
	return b.String()
}

// RunCaseStudy merges the first suitable post-cutoff event into a clone
// of the TKG and attributes it.
func RunCaseStudy(ctx *Context) (*CaseStudyResult, error) {
	pulse, ok := ctx.pickCaseStudyPulse()
	if !ok {
		return nil, errors.New("eval: no post-cutoff pulse available for the case study")
	}
	tkg, err := ctx.TKG.Clone()
	if err != nil {
		return nil, err
	}
	// Train the model before the event exists, as in the paper.
	set, _, model, err := ctx.trainBaseGNN(3)
	if err != nil {
		return nil, err
	}

	evID, err := tkg.AddPulse(pulse)
	if err != nil {
		return nil, err
	}
	tkg.FinalizeLabels()
	truth := tkg.G.Node(evID).Label

	res := &CaseStudyResult{
		PulseID:       pulse.ID,
		TrueAPT:       ctx.Names[truth],
		ReportedIOCs:  len(pulse.Indicators),
		EventsAt2Hops: map[string]int{},
		EventsAt3Hops: map[string]int{},
	}

	dist := graph.BFSDistances(tkg.G.CSR(), evID, 3)
	for id, d := range dist {
		if d <= 0 {
			continue
		}
		n := tkg.G.Node(graph.NodeID(id))
		if n.Kind == graph.KindEvent && n.Label >= 0 {
			name := ctx.Names[n.Label]
			if d <= 2 {
				res.EventsAt2Hops[name]++
			}
			res.EventsAt3Hops[name]++
		}
		if d <= 2 && n.Kind != graph.KindEvent && n.Kind != graph.KindASN {
			res.EnrichedIOCs++
		}
	}

	// Label propagation with every other event labelled.
	seeds := visibleLabels(tkg.G)
	delete(seeds, evID)
	lpPred := labelprop.AttributeCSR(tkg.G.CSR(), seeds, []graph.NodeID{evID}, ctx.Classes, 4)[0]
	res.LPPrediction = nameOf(ctx, lpPred)

	// GNN on the merged graph: encodings recomputed with the frozen
	// encoder set ("updating the TKG" without retraining, §VII-C).
	in := gnn.BuildInput(tkg.G, tkg.Features, set, ctx.Classes)
	blind := model.PredictProba(in, nil, []graph.NodeID{evID})
	res.GNNConfBlind = blind.At(0, truth)
	res.GNNPredBlind = nameOf(ctx, argmaxRow(blind, 0))
	vis := model.PredictProba(in, seeds, []graph.NodeID{evID})
	res.GNNConfVisible = vis.At(0, truth)
	res.GNNPredVisible = nameOf(ctx, argmaxRow(vis, 0))
	return res, nil
}

// pickCaseStudyPulse selects the post-cutoff pulse that best matches the
// paper's case study: a report from a well-represented group whose IOCs
// overlap infrastructure already in the TKG (the paper's APT38 report
// shared 40% of its domains and 20% of its IPs with earlier events).
func (ctx *Context) pickCaseStudyPulse() (osint.Pulse, bool) {
	counts := make(map[int]int)
	for _, ev := range ctx.TKG.EventNodes() {
		counts[ctx.TKG.G.Node(ev).Label]++
	}
	var best *osint.Pulse
	bestOverlap := -1
	for _, p := range ctx.World.PulsesInMonths(ctx.TrainMonths, ctx.TrainMonths+ctx.Opts.StudyMonths) {
		p := p
		if counts[p.TrueAPT] < 10 || len(p.Indicators) < 5 {
			continue
		}
		overlap := ctx.pulseOverlap(p)
		if overlap > bestOverlap {
			best, bestOverlap = &p, overlap
		}
	}
	if best != nil {
		return *best, true
	}
	// Degenerate worlds (tests): take anything post-cutoff.
	post := ctx.World.PulsesInMonths(ctx.TrainMonths, ctx.TrainMonths+ctx.Opts.StudyMonths)
	if len(post) > 0 {
		return post[0], true
	}
	return osint.Pulse{}, false
}

// pulseOverlap counts the pulse's indicators already present in the TKG.
func (ctx *Context) pulseOverlap(p osint.Pulse) int {
	overlap := 0
	for _, ind := range p.Indicators {
		item, ok := ioc.Classify(ind.Indicator)
		if !ok {
			continue
		}
		kind, ok := kindOfIOC(item.Type)
		if !ok {
			continue
		}
		if _, found := ctx.TKG.G.Lookup(kind, item.Value); found {
			overlap++
		}
	}
	return overlap
}

func kindOfIOC(t ioc.Type) (graph.NodeKind, bool) {
	switch t {
	case ioc.TypeIP:
		return graph.KindIP, true
	case ioc.TypeURL:
		return graph.KindURL, true
	case ioc.TypeDomain:
		return graph.KindDomain, true
	default:
		return 0, false
	}
}

func aeConfigFor(ctx *Context) gnn.AEConfig {
	cfg := gnn.DefaultAEConfig()
	if ctx.Opts.Fast {
		cfg.Epochs = 2
		cfg.Hidden = 32
	}
	return cfg
}

func nameOf(ctx *Context, class int) string {
	if class < 0 || class >= len(ctx.Names) {
		return "UNATTRIBUTED"
	}
	return ctx.Names[class]
}

func argmaxRow(m interface{ Row(int) []float64 }, i int) int {
	row := m.Row(i)
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return bi
}

// Figure7Result is the one-month unseen-event confusion matrix (§VII-C).
type Figure7Result struct {
	Truth, Pred []int
	Matrix      *ml.ConfusionMatrix
	Names       []string
	Accuracy    float64
	// Confidences per evaluated event (the paper notes true positives
	// carry higher confidence than false positives).
	Confidences []float64
}

// Render prints the confusion matrix restricted to present classes, plus
// the per-class precision/recall/F1 breakdown.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: confusion matrix, first unseen month (%d events, acc %.2f)\n",
		len(r.Truth), r.Accuracy)
	b.WriteString(r.Matrix.Render(r.Names))
	b.WriteString(ml.RenderReport(ml.ClassificationReport(r.Truth, r.Pred, len(r.Names)), r.Names))
	return b.String()
}

// RunFigure7 merges the first study month's events into a clone of the
// TKG and evaluates the frozen GNN on them.
func RunFigure7(ctx *Context) (*Figure7Result, error) {
	set, _, model, err := ctx.trainBaseGNN(3)
	if err != nil {
		return nil, err
	}
	tkg, err := ctx.TKG.Clone()
	if err != nil {
		return nil, err
	}
	baseVisible := visibleLabels(tkg.G)

	var newEvents []graph.NodeID
	for _, p := range ctx.World.PulsesInMonths(ctx.TrainMonths, ctx.TrainMonths+1) {
		ev, err := tkg.AddPulse(p)
		if err != nil {
			continue // skipped pulse
		}
		newEvents = append(newEvents, ev)
	}
	if len(newEvents) == 0 {
		return nil, errors.New("eval: no events in the first study month")
	}
	tkg.FinalizeLabels()
	in := gnn.BuildInput(tkg.G, tkg.Features, set, ctx.Classes)

	truth := make([]int, len(newEvents))
	for i, ev := range newEvents {
		truth[i] = tkg.G.Node(ev).Label
	}
	pred := model.Predict(in, baseVisible, newEvents)
	conf := model.Confidence(in, baseVisible, newEvents)

	return &Figure7Result{
		Truth: truth, Pred: pred,
		Matrix:      ml.NewConfusionMatrix(truth, pred, ctx.Classes),
		Names:       ctx.Names,
		Accuracy:    ml.Accuracy(truth, pred),
		Confidences: conf,
	}, nil
}

// DriftPoint is one month of the Fig. 8 study.
type DriftPoint struct {
	Month         int
	Events        int
	FrozenAcc     float64
	FrozenBAcc    float64
	RetrainedAcc  float64
	RetrainedBAcc float64
}

// Figure8Result is the model-drift experiment.
type Figure8Result struct {
	Points []DriftPoint
}

// Render prints the drift series.
func (r *Figure8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: accuracy drift, frozen vs monthly-retrained GNN\n")
	fmt.Fprintf(&b, "%-6s %7s %11s %12s %14s %15s\n",
		"month", "events", "frozen-acc", "frozen-bacc", "retrained-acc", "retrained-bacc")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-6d %7d %11.4f %12.4f %14.4f %15.4f\n",
			p.Month, p.Events, p.FrozenAcc, p.FrozenBAcc, p.RetrainedAcc, p.RetrainedBAcc)
	}
	return b.String()
}

// MeanGapLastMonths returns the mean (retrained - frozen) accuracy gap
// over the final n points — the degradation the paper quantifies at
// ~3.5% per month.
func (r *Figure8Result) MeanGapLastMonths(n int) float64 {
	if n > len(r.Points) {
		n = len(r.Points)
	}
	if n == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range r.Points[len(r.Points)-n:] {
		sum += p.RetrainedAcc - p.FrozenAcc
	}
	return sum / float64(n)
}

// RunFigure8 evaluates each study month twice: with the frozen base model
// on the frozen TKG, and with a model fine-tuned on (and a TKG updated
// with) every preceding study month.
func RunFigure8(ctx *Context) (*Figure8Result, error) {
	set, _, frozenModel, err := ctx.trainBaseGNN(3)
	if err != nil {
		return nil, err
	}
	// The retrained track gets its own growing TKG and its own model.
	liveTKG, err := ctx.TKG.Clone()
	if err != nil {
		return nil, err
	}
	liveModel := frozenModel.CloneModel()
	frozenVisible := visibleLabels(ctx.TKG.G)

	res := &Figure8Result{}
	fineTuneEpochs := 15
	if ctx.Opts.Fast {
		fineTuneEpochs = 4
	}
	for m := 0; m < ctx.Opts.StudyMonths; m++ {
		month := ctx.TrainMonths + m
		pulses := ctx.World.PulsesInMonths(month, month+1)
		if len(pulses) == 0 {
			continue
		}

		// Frozen track: events merged into a throwaway clone so the
		// frozen model sees them in the graph but with stale weights and
		// a stale label set.
		frozenClone, err := ctx.TKG.Clone()
		if err != nil {
			return nil, err
		}
		var fEvents []graph.NodeID
		for _, p := range pulses {
			if ev, err := frozenClone.AddPulse(p); err == nil {
				fEvents = append(fEvents, ev)
			}
		}
		frozenClone.FinalizeLabels()
		fIn := gnn.BuildInput(frozenClone.G, frozenClone.Features, set, ctx.Classes)
		fTruth := make([]int, len(fEvents))
		for i, ev := range fEvents {
			fTruth[i] = frozenClone.G.Node(ev).Label
		}
		fPred := frozenModel.Predict(fIn, frozenVisible, fEvents)

		// Live track: merge into the growing TKG; predict with the
		// up-to-date model, then fine-tune on this month for the next.
		var lEvents []graph.NodeID
		for _, p := range pulses {
			if ev, err := liveTKG.AddPulse(p); err == nil {
				lEvents = append(lEvents, ev)
			}
		}
		liveTKG.FinalizeLabels()
		lIn := gnn.BuildInput(liveTKG.G, liveTKG.Features, set, ctx.Classes)
		lVisible := visibleLabels(liveTKG.G)
		for _, ev := range lEvents {
			delete(lVisible, ev)
		}
		lTruth := make([]int, len(lEvents))
		for i, ev := range lEvents {
			lTruth[i] = liveTKG.G.Node(ev).Label
		}
		lPred := liveModel.Predict(lIn, lVisible, lEvents)
		if err := liveModel.FineTune(lIn, lEvents, fineTuneEpochs); err != nil {
			return nil, err
		}

		res.Points = append(res.Points, DriftPoint{
			Month:         m + 1,
			Events:        len(fEvents),
			FrozenAcc:     ml.Accuracy(fTruth, fPred),
			FrozenBAcc:    ml.BalancedAccuracy(fTruth, fPred, ctx.Classes),
			RetrainedAcc:  ml.Accuracy(lTruth, lPred),
			RetrainedBAcc: ml.BalancedAccuracy(lTruth, lPred, ctx.Classes),
		})
	}
	return res, nil
}
