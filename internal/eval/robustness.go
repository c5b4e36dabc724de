package eval

import (
	"fmt"
	"path/filepath"
	"strings"

	"trail/internal/ckpt"
	"trail/internal/ml"
	"trail/internal/osint"
)

// RobustnessConfig tunes the enrichment-failure robustness sweep: the TKG
// is rebuilt at each fault rate behind the chaos injector and resilience
// middleware, and event attribution is re-evaluated on the degraded
// graph.
type RobustnessConfig struct {
	// Rates are the permanent enrichment-failure rates to sweep. A rate
	// of 0 is the fault-free baseline.
	Rates []float64
	// TransientRate adds constant background flakiness on top of every
	// sweep point; the middleware is expected to absorb it entirely.
	TransientRate float64
	// ChaosSeed seeds the fault injector (independent of the eval seed so
	// the same worlds fail differently across studies if desired).
	ChaosSeed int64
	// LPLayers and GNNLayers select the attribution models evaluated at
	// each point (the paper's best label-propagation depth and a
	// mid-depth GNN).
	LPLayers  int
	GNNLayers int
}

// DefaultRobustnessConfig sweeps 0-40% permanent failures with 10%
// background transients, evaluating LP 4L and GNN 2L.
func DefaultRobustnessConfig() RobustnessConfig {
	return RobustnessConfig{
		Rates:         []float64{0, 0.1, 0.2, 0.4},
		TransientRate: 0.1,
		ChaosSeed:     42,
		LPLayers:      4,
		GNNLayers:     2,
	}
}

// RobustnessPoint is one row of the sweep.
type RobustnessPoint struct {
	Rate         float64
	Degraded     int
	EnrichErrors int
	Retries      int64
	Trips        int64
	LP           ml.MeanStd
	GNN          ml.MeanStd
}

// RobustnessResult is the enrichment-failure robustness experiment.
type RobustnessResult struct {
	Points    []RobustnessPoint
	LPLayers  int
	GNNLayers int
	Events    int
}

// Render prints the accuracy-vs-fault-rate table.
func (r *RobustnessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness: event attribution vs enrichment failure rate (%d events)\n", r.Events)
	fmt.Fprintf(&b, "%-6s %9s %8s %8s %6s %18s %18s\n",
		"rate", "degraded", "errors", "retries", "trips",
		fmt.Sprintf("LP %dL acc", r.LPLayers), fmt.Sprintf("GNN %dL acc", r.GNNLayers))
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-6.2f %9d %8d %8d %6d %18s %18s\n",
			p.Rate, p.Degraded, p.EnrichErrors, p.Retries, p.Trips, p.LP, p.GNN)
	}
	return b.String()
}

// AccuracyDrop returns the mean-accuracy drop of the named depth family
// ("LP" or "GNN") between the lowest and highest swept rate.
func (r *RobustnessResult) AccuracyDrop(family string) float64 {
	if len(r.Points) < 2 {
		return 0
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if family == "GNN" {
		return first.GNN.Mean - last.GNN.Mean
	}
	return first.LP.Mean - last.LP.Mean
}

// robustnessUnit is the journaled result of one sweep point (the point
// plus the table's event count, which Render needs).
type robustnessUnit struct {
	Point  RobustnessPoint
	Events int
}

// robustnessKey pins a journal record to everything that shapes the
// point's result, so a rerun with different settings re-computes instead
// of absorbing a stale record.
func robustnessKey(opts Options, cfg RobustnessConfig, rate float64) string {
	return fmt.Sprintf("rate-%.4f|lp%d|gnn%d|tr%.3f|cs%d|s%d",
		rate, cfg.LPLayers, cfg.GNNLayers, cfg.TransientRate, cfg.ChaosSeed, opts.Seed)
}

// RunRobustness rebuilds the TKG at each fault rate behind the full
// chaos -> retry/breaker stack and re-runs event attribution on the
// degraded graph. The base context supplies world configuration and
// evaluation options only; each point builds its own world so degraded
// feature vectors are genuinely imputed, not copied from the baseline.
func RunRobustness(ctx *Context, cfg RobustnessConfig) (*RobustnessResult, error) {
	if len(cfg.Rates) == 0 {
		cfg = DefaultRobustnessConfig()
	}
	var journal *ckpt.Journal
	if dir := ctx.Opts.ResumeDir; dir != "" {
		var err error
		journal, err = ckpt.OpenJournal(filepath.Join(dir, "robustness.journal"))
		if err != nil {
			return nil, fmt.Errorf("eval: robustness journal: %w", err)
		}
		defer journal.Close()
	}
	res := &RobustnessResult{LPLayers: cfg.LPLayers, GNNLayers: cfg.GNNLayers}
	for _, rate := range cfg.Rates {
		if journal != nil {
			var unit robustnessUnit
			done, err := journal.DoneGob(robustnessKey(ctx.Opts, cfg, rate), &unit)
			if err != nil {
				return nil, fmt.Errorf("eval: robustness journal: %w", err)
			}
			if done {
				res.Points = append(res.Points, unit.Point)
				res.Events = unit.Events
				continue
			}
		}
		pctx, rep, err := newContext(ctx.Opts, func(w *osint.World) osint.FallibleServices {
			return osint.NewChaosStack(w, cfg.ChaosSeed, rate, cfg.TransientRate)
		})
		if err != nil {
			return nil, fmt.Errorf("eval: robustness at rate %.2f: %w", rate, err)
		}
		tcfg := DefaultTableIVConfig()
		tcfg.Models = []ModelName{} // traditional models: out of scope here
		tcfg.LPLayers = []int{cfg.LPLayers}
		tcfg.GNNLayers = []int{cfg.GNNLayers}
		table, err := RunTableIV(pctx, tcfg)
		if err != nil {
			return nil, fmt.Errorf("eval: robustness at rate %.2f: %w", rate, err)
		}
		point := RobustnessPoint{
			Rate:         rate,
			Degraded:     rep.Degraded(),
			EnrichErrors: rep.EnrichErrors,
		}
		if rep.Resilience != nil {
			t := rep.Resilience.Totals()
			point.Retries, point.Trips = t.Retries, t.Trips
		}
		if row := table.Row(fmt.Sprintf("LP %dL", cfg.LPLayers)); row != nil {
			point.LP = row.Acc
		}
		if row := table.Row(fmt.Sprintf("GNN %dL", cfg.GNNLayers)); row != nil {
			point.GNN = row.Acc
		}
		res.Points = append(res.Points, point)
		res.Events = table.Events
		if journal != nil {
			unit := robustnessUnit{Point: point, Events: table.Events}
			if err := journal.RecordGob(robustnessKey(ctx.Opts, cfg, rate), unit); err != nil {
				return nil, fmt.Errorf("eval: robustness journal: %w", err)
			}
		}
	}
	return res, nil
}
