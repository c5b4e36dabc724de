package eval

import (
	"strings"
	"testing"

	"trail/internal/hyperopt"
)

func TestUnknownAPTStudy(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunUnknownAPTStudy(ctx, "APT38")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no threshold points")
	}
	// Monotonicity: raising the threshold can only reject more unknowns
	// and attribute fewer knowns.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].UnknownRejected < res.Points[i-1].UnknownRejected-1e-9 {
			t.Fatal("unknown rejection not monotone in the threshold")
		}
		if res.Points[i].KnownCoverage > res.Points[i-1].KnownCoverage+1e-9 {
			t.Fatal("known coverage not monotone in the threshold")
		}
	}
	// Threshold 0 attributes everything and rejects nothing.
	if res.Points[0].KnownCoverage != 1 || res.Points[0].UnknownRejected != 0 {
		t.Fatalf("threshold 0 point wrong: %+v", res.Points[0])
	}
	if !strings.Contains(res.Render(), "APT38") {
		t.Fatal("render incomplete")
	}
}

// TestUnknownAPTStudyUnknownName: every entry point that takes an APT
// name rejects a name outside the roster.
func TestUnknownAPTStudyUnknownName(t *testing.T) {
	ctx := getCtx(t)
	for _, tc := range []struct {
		name string
		run  func(*Context, string) error
	}{
		{"RunFigure3", func(c *Context, n string) error { _, err := RunFigure3(c, n); return err }},
		{"RunFigure9", func(c *Context, n string) error { _, err := RunFigure9(c, n); return err }},
		{"RunFigure10", func(c *Context, n string) error { _, err := RunFigure10(c, n); return err }},
		{"RunUnknownAPTStudy", func(c *Context, n string) error { _, err := RunUnknownAPTStudy(c, n); return err }},
		{"RunZeroShotLP", func(c *Context, n string) error { _, err := RunZeroShotLP(c, n); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(ctx, "NOT_A_GROUP")
			if err == nil || !strings.Contains(err.Error(), `unknown APT "NOT_A_GROUP"`) {
				t.Fatalf("err = %v, want unknown APT", err)
			}
		})
	}
}

func TestZeroShotLP(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunZeroShotLP(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedEvents == 0 || res.TestEvents == 0 {
		t.Fatal("empty split")
	}
	// Without the group's seeds, LP cannot ever name the group: the
	// control accuracy must be zero.
	if res.LPAccuracyWithoutSeeds != 0 {
		t.Fatalf("control accuracy %.3f != 0 — the group leaked into the seed set",
			res.LPAccuracyWithoutSeeds)
	}
	// With the seeds merged (no retraining), accuracy must improve.
	if res.LPAccuracy <= res.LPAccuracyWithoutSeeds {
		t.Fatalf("zero-shot seeds did not help: %.3f", res.LPAccuracy)
	}
}

func TestAblationSAGEvsGCN(t *testing.T) {
	ctx := getCtx(t)
	row, err := RunAblationSAGEvsGCN(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if row.AccA < 0 || row.AccA > 1 || row.AccB < 0 || row.AccB > 1 {
		t.Fatalf("accuracies out of range: %+v", row)
	}
}

func TestRunTuningRF(t *testing.T) {
	ctx := getCtx(t)
	res, err := RunTuning(ctx, ModelRF, graphKindURLForTest(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 6 {
		t.Fatalf("trials %d", res.Trials)
	}
	if res.BestScore < 0 || res.BestScore > 1 {
		t.Fatalf("best score %v", res.BestScore)
	}
	// The tuned optimum can never be worse than the trials' own best by
	// construction; sanity-check the render too.
	if !strings.Contains(res.Render(), "TPE tuning") {
		t.Fatal("render incomplete")
	}
}

// TestTuneResultRenderStable: the tuned parameters print in search-space
// order, so rendering one result twice gives the same string (it ranged
// over the Params map, whose order changes from call to call).
func TestTuneResultRenderStable(t *testing.T) {
	res := &TuneResult{Model: ModelXGB, Kind: graphKindURLForTest(), Trials: 8,
		Best: hyperopt.Params{"rounds": 12, "depth": 5, "eta": 0.2, "lambda": 1.5, "subsample": 0.8}}
	want := res.Render()
	for i := 0; i < 50; i++ {
		if got := res.Render(); got != want {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
	var order []string
	for _, line := range strings.Split(want, "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			order = append(order, f[0])
		}
	}
	if got := strings.Join(order, ","); got != "rounds,depth,eta,lambda,subsample" {
		t.Fatalf("params printed as %s, want search-space order", got)
	}
}

func TestRunTuningRejectsNN(t *testing.T) {
	ctx := getCtx(t)
	if _, err := RunTuning(ctx, ModelNN, graphKindURLForTest(), 3); err == nil {
		t.Fatal("NN should not be tunable (paper tunes XGB and RF only)")
	}
}
