package eval

import (
	"errors"
	"fmt"
	"maps"
	"strings"

	"trail/internal/explain"
	"trail/internal/feature"
	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/ioc"
	"trail/internal/ml"
)

// Figure9Result is the SHAP feature-importance study: the top features of
// the XGB URL classifier for one APT class (the paper shows APT28).
type Figure9Result struct {
	APT     string
	Class   int
	Impacts []explain.FeatureImpact
	Samples int
}

// Render prints a text beeswarm summary: ranked features with their mean
// SHAP direction.
func (r *Figure9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: top-%d SHAP features of the XGB URL classifier for %s (%d samples)\n",
		len(r.Impacts), r.APT, r.Samples)
	for i, fi := range r.Impacts {
		dir := "+"
		if fi.MeanSHAP < 0 {
			dir = "-"
		}
		fmt.Fprintf(&b, "  %2d. %-28s mean|SHAP|=%.4f direction=%s\n", i+1, fi.Name, fi.MeanAbs, dir)
	}
	return b.String()
}

// Fig. 9 sizing: the class URLs explained, the SHAP background set, the
// features reported, and the permutations per explained sample. Fast
// mode explains 4 URLs with 1 permutation each.
const (
	fig9ExplainSamples    = 24
	fig9BackgroundSamples = 48
	fig9TopK              = 10
	fig9Permutations      = 4
)

// RunFigure9 trains the XGB URL classifier and computes sampling-SHAP
// values for the named class's URL samples (APT28 by default, as in the
// paper).
func RunFigure9(ctx *Context, aptName string) (*Figure9Result, error) {
	if aptName == "" {
		aptName = "APT28"
	}
	class, err := ctx.classOf(aptName)
	if err != nil {
		return nil, err
	}
	X, y, err := ctx.LabeledFeatureMatrix(graph.KindURL)
	if err != nil {
		return nil, err
	}
	scaler := ml.FitScaler(X)
	Xs := scaler.Transform(X)
	model := newModel(ModelXGB, ctx.Classes, ctx.Opts.Seed, ctx.Opts.Fast)
	if err := model.Fit(Xs, y); err != nil {
		return nil, err
	}

	// Explained set: the class's own URLs; background: a class-agnostic
	// sample.
	var classRows, bgRows []int
	for i, c := range y {
		if c == class && len(classRows) < fig9ExplainSamples {
			classRows = append(classRows, i)
		}
	}
	if len(classRows) == 0 {
		return nil, fmt.Errorf("eval: no %s URL samples", aptName)
	}
	step := Xs.Rows / fig9BackgroundSamples
	if step < 1 {
		step = 1
	}
	for i := 0; i < Xs.Rows && len(bgRows) < fig9BackgroundSamples; i += step {
		bgRows = append(bgRows, i)
	}

	shap := explain.NewSHAP(model, Xs.SelectRows(bgRows))
	shap.Permutations = fig9Permutations
	if ctx.Opts.Fast {
		shap.Permutations = 1
		if len(classRows) > 4 {
			classRows = classRows[:4]
		}
	}
	vals := shap.Matrix(Xs.SelectRows(classRows), class)
	impacts := explain.Summarize(vals, feature.Names(ioc.TypeURL), fig9TopK)
	return &Figure9Result{
		APT:     aptName,
		Class:   class,
		Impacts: impacts,
		Samples: len(classRows),
	}, nil
}

// Figure10Result is the GNNExplainer study: the most important subgraph
// nodes behind one event's attribution.
type Figure10Result struct {
	Event     string
	APT       string
	Predicted string
	// TopNodes lists the highest-weighted nodes with kind and key.
	TopNodes []ExplainedNode
	// ImportantEventNeighbors counts how many of the top nodes are other
	// events (the paper finds mostly IOC feature nodes, with one reused
	// domain path to a second APT28 event).
	ImportantEventNeighbors int
}

// ExplainedNode is one ranked node of the explanation subgraph.
type ExplainedNode struct {
	Kind   graph.NodeKind
	Key    string
	Weight float64
}

// Render prints the Fig. 10 view.
func (r *Figure10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: GNNExplainer top nodes for event %s (true %s, predicted %s)\n",
		r.Event, r.APT, r.Predicted)
	for i, n := range r.TopNodes {
		fmt.Fprintf(&b, "  %2d. %-7s %-40s weight=%.3f\n", i+1, n.Kind, n.Key, n.Weight)
	}
	fmt.Fprintf(&b, "  other events among top nodes: %d\n", r.ImportantEventNeighbors)
	return b.String()
}

// fig10TopK is how many of the explanation's top nodes Fig. 10 reads.
const fig10TopK = 15

// RunFigure10 trains a 3-layer GNN and explains one event of the chosen
// class (APT28 by default, as in the paper).
func RunFigure10(ctx *Context, aptName string) (*Figure10Result, error) {
	if aptName == "" {
		aptName = "APT28"
	}
	class, err := ctx.classOf(aptName)
	if err != nil {
		return nil, err
	}
	_, in, model, err := ctx.trainBaseGNN(3)
	if err != nil {
		return nil, err
	}

	// Prefer a correctly classified event of the class; fall back to any
	// event of the class — the paper notes that explaining a wrong
	// prediction is still useful ("analysts may still use the IOCs
	// identified as important to continue their search").
	var target, fallback graph.NodeID = -1, -1
	visible := ctx.TKG.EventSeeds()
	for _, ev := range ctx.TKG.EventNodes() {
		if ctx.TKG.G.Node(ev).Label != class {
			continue
		}
		if fallback < 0 {
			fallback = ev
		}
		vis := maps.Clone(visible)
		delete(vis, ev)
		if model.Predict(in, vis, []graph.NodeID{ev})[0] == class {
			target = ev
			break
		}
	}
	if target < 0 {
		target = fallback
	}
	if target < 0 {
		return nil, errors.New("eval: no events of the requested class in the TKG")
	}
	vis := maps.Clone(visible)
	delete(vis, target)
	pred := model.Predict(in, vis, []graph.NodeID{target})[0]

	ecfg := gnn.DefaultExplainerConfig()
	if ctx.Opts.Fast {
		ecfg.Epochs = 10
	}
	exp := model.Explain(in, vis, target, pred, ecfg)

	res := &Figure10Result{
		Event:     ctx.TKG.G.Node(target).Key,
		APT:       aptName,
		Predicted: ctx.nameOf(pred),
	}
	for i, id := range exp.Nodes {
		if i >= fig10TopK {
			break
		}
		if id == target {
			continue
		}
		n := ctx.TKG.G.Node(id)
		res.TopNodes = append(res.TopNodes, ExplainedNode{
			Kind: n.Kind, Key: n.Key, Weight: exp.NodeWeights[i],
		})
		if n.Kind == graph.KindEvent {
			res.ImportantEventNeighbors++
		}
	}
	return res, nil
}
