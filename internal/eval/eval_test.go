package eval

import (
	"errors"
	"strings"
	"testing"

	"trail/internal/core"
	"trail/internal/graph"
)

// testContext is shared across the package's tests: building a context is
// the expensive part, and every experiment treats it as read-only (the
// longitudinal runs clone the TKG before merging).
var sharedCtx *Context

func getCtx(t testing.TB) *Context {
	t.Helper()
	if sharedCtx == nil {
		ctx, err := NewContext(TestOptions())
		if err != nil {
			t.Fatal(err)
		}
		sharedCtx = ctx
	}
	return sharedCtx
}

func TestTableII(t *testing.T) {
	ctx := getCtx(t)
	res := RunTableII(ctx)
	if res.Report.Total.Nodes == 0 {
		t.Fatal("empty report")
	}
	out := res.Render()
	for _, want := range []string{"Events", "IPs", "URLs", "Domains", "ASNs", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure4ShapeMatchesPaper(t *testing.T) {
	ctx := getCtx(t)
	res := RunFigure4(ctx)
	for _, k := range []graph.NodeKind{graph.KindIP, graph.KindURL, graph.KindDomain} {
		if frac := res.SingleUseFraction(k); frac < 0.5 {
			t.Errorf("%s single-use fraction %.2f; Fig. 4 shows reuse=1 dominating", k, frac)
		}
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestGraphStats(t *testing.T) {
	ctx := getCtx(t)
	res := RunGraphStats(ctx)
	if res.Stats.LargestComponentPct < 50 {
		t.Errorf("largest component %.1f%%", res.Stats.LargestComponentPct)
	}
	if res.Stats.EventsWithin2HopsPct <= 0 {
		t.Error("no events within 2 hops of each other")
	}
	if !strings.Contains(res.Render(), "pseudo-diameter") {
		t.Error("render incomplete")
	}
}

func TestTableIIIFast(t *testing.T) {
	ctx := getCtx(t)
	cfg := DefaultTableIIIConfig()
	cfg.Models = []ModelName{ModelRF}
	cfg.Kinds = []graph.NodeKind{graph.KindURL}
	res, err := RunTableIII(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cell(ModelRF, graph.KindURL)
	if cell == nil {
		t.Fatal("missing cell")
	}
	random := 1.0 / float64(ctx.Classes)
	if cell.Acc.Mean <= random*1.5 {
		t.Errorf("URL RF accuracy %.3f barely above random %.3f; features carry no signal",
			cell.Acc.Mean, random)
	}
	if !strings.Contains(res.Render(), "Table III") {
		t.Error("render incomplete")
	}
}

// TestTableIIIHeaderFolds: the Table III header names the fold count the
// means were taken over, not a fixed one.
func TestTableIIIHeaderFolds(t *testing.T) {
	ctx := getCtx(t)
	if ctx.Opts.Folds != 3 {
		t.Fatalf("TestOptions folds = %d, want 3", ctx.Opts.Folds)
	}
	res, err := RunTableIII(ctx, TableIIIConfig{Models: []ModelName{ModelRF}, Kinds: []graph.NodeKind{graph.KindIP}})
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Render(); !strings.Contains(out, "(3-fold mean)") {
		t.Fatalf("header does not name 3 folds:\n%s", out)
	}
}

func TestTableIVLPOrdering(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunTableIV(ctx, TableIVConfig{LPLayers: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	lp2, lp4 := res.Row("LP 2L"), res.Row("LP 4L")
	if lp2 == nil || lp4 == nil {
		t.Fatal("missing LP rows")
	}
	// Deeper propagation must not lose accuracy (paper: monotone gain).
	if lp4.Acc.Mean < lp2.Acc.Mean-0.02 {
		t.Errorf("LP 4L (%.3f) worse than LP 2L (%.3f)", lp4.Acc.Mean, lp2.Acc.Mean)
	}
	if lp2.Acc.Mean < 0.3 {
		t.Errorf("LP 2L %.3f suspiciously low", lp2.Acc.Mean)
	}
}

func TestTableIVGNNFast(t *testing.T) {
	ctx := getCtx(t)
	cfg := DefaultTableIVConfig()
	cfg.LPLayers = nil
	cfg.GNNLayers = []int{2}
	res, err := RunTableIV(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2 := res.Row("GNN 2L")
	if g2 == nil {
		t.Fatal("missing GNN row")
	}
	random := 1.0 / float64(ctx.Classes)
	if g2.Acc.Mean <= random*2 {
		t.Errorf("GNN 2L accuracy %.3f no better than random", g2.Acc.Mean)
	}
}

func TestTableIVModeVote(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunTableIV(ctx, TableIVConfig{Models: []ModelName{ModelRF}})
	if err != nil {
		t.Fatal(err)
	}
	rf := res.Row("RF")
	if rf == nil {
		t.Fatal("missing RF row")
	}
	random := 1.0 / float64(ctx.Classes)
	if rf.Acc.Mean <= random*2 {
		t.Errorf("RF mode-vote accuracy %.3f no better than random", rf.Acc.Mean)
	}
}

func TestCaseStudy(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunCaseStudy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueAPT == "" || res.PulseID == "" {
		t.Fatal("case study incomplete")
	}
	if res.GNNConfBlind < 0 || res.GNNConfBlind > 1 || res.GNNConfVisible < 0 || res.GNNConfVisible > 1 {
		t.Fatalf("confidences out of range: %v %v", res.GNNConfBlind, res.GNNConfVisible)
	}
	if !strings.Contains(res.Render(), res.TrueAPT) {
		t.Error("render missing ground truth")
	}
}

func TestFigure7(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunFigure7(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) == 0 {
		t.Fatal("no evaluated events")
	}
	if len(res.Confidences) != len(res.Truth) {
		t.Fatal("confidence count mismatch")
	}
	if !strings.Contains(res.Render(), "confusion") {
		t.Error("render incomplete")
	}
}

// TestMergePulsesDuplicate: merging the same month twice fails with
// core.ErrDuplicate instead of silently dropping the month.
func TestMergePulsesDuplicate(t *testing.T) {
	ctx := getCtx(t)
	tkg, err := ctx.TKG.Clone()
	if err != nil {
		t.Fatal(err)
	}
	pulses := ctx.World.PulsesInMonths(ctx.TrainMonths, ctx.TrainMonths+1)
	events, truth, err := mergePulses(tkg, pulses)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(truth) != len(events) {
		t.Fatalf("first merge: %d events, %d labels", len(events), len(truth))
	}
	if _, _, err := mergePulses(tkg, pulses); !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("second merge: err = %v, want core.ErrDuplicate", err)
	}
}

func TestFigure8(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunFigure8(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no drift points")
	}
	for _, p := range res.Points {
		if p.Events == 0 {
			t.Errorf("month %d has zero events", p.Month)
		}
		if p.FrozenAcc < 0 || p.FrozenAcc > 1 || p.RetrainedAcc < 0 || p.RetrainedAcc > 1 {
			t.Errorf("month %d accuracies out of range", p.Month)
		}
	}
	_ = res.MeanGapLastMonths(2)
}

func TestFigure9(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunFigure9(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Impacts) == 0 {
		t.Fatal("no impacts")
	}
	if res.Impacts[0].MeanAbs <= 0 {
		t.Error("top feature has zero impact")
	}
	for i := 1; i < len(res.Impacts); i++ {
		if res.Impacts[i].MeanAbs > res.Impacts[i-1].MeanAbs+1e-12 {
			t.Error("impacts not sorted")
		}
	}
}

func TestFigure10(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunFigure10(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopNodes) == 0 {
		t.Fatal("no explained nodes")
	}
	for i := 1; i < len(res.TopNodes); i++ {
		if res.TopNodes[i].Weight > res.TopNodes[i-1].Weight+1e-9 {
			t.Error("explanation weights not sorted")
		}
	}
}

func TestAblationEnrichmentDepth(t *testing.T) {
	ctx := getCtx(t)
	row, err := RunAblationEnrichmentDepth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Enrichment must help deep label propagation (the paper's core
	// argument for secondary IOCs).
	if row.AccA < row.AccB-0.05 {
		t.Errorf("enrichment hurt LP 3L: with %.3f vs without %.3f", row.AccA, row.AccB)
	}
}

func TestMostReusedIOCs(t *testing.T) {
	ctx := getCtx(t)
	top := MostReusedIOCs(ctx, 5)
	for i := 1; i < len(top); i++ {
		if top[i].EventCount > top[i-1].EventCount {
			t.Fatal("not sorted by reuse")
		}
	}
	for _, n := range top {
		if !n.FirstOrder || n.EventCount < 2 {
			t.Fatalf("bad entry %+v", n)
		}
	}
}

// graphKindURLForTest avoids an import cycle dance in test helpers.
func graphKindURLForTest() graph.NodeKind { return graph.KindURL }

func TestFigure3(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunFigure3(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIOCs == 0 || res.Edges == 0 {
		t.Fatalf("empty ego net: %+v", res)
	}
	sum := res.ByKind[graph.KindIP] + res.ByKind[graph.KindDomain] + res.ByKind[graph.KindURL]
	if sum != res.TotalIOCs {
		t.Fatalf("census mismatch: %d vs %d", sum, res.TotalIOCs)
	}
	if !strings.Contains(res.Render(), "ego-net") {
		t.Fatal("render incomplete")
	}
	if _, err := RunFigure3(ctx, "NOPE"); err == nil {
		t.Fatal("unknown APT accepted")
	}
}
