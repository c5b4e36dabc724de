package hyperopt

import (
	"math"
	"testing"
)

func TestMinimizeQuadratic(t *testing.T) {
	space := Space{
		{Name: "x", Min: -10, Max: 10},
		{Name: "y", Min: -10, Max: 10},
	}
	obj := func(p Params) float64 {
		dx := p["x"] - 3
		dy := p["y"] + 2
		return dx*dx + dy*dy
	}
	cfg := DefaultConfig()
	cfg.Trials = 60
	best, history, _ := MinimizeResumable(obj, space, cfg, nil)
	if len(history) != 60 {
		t.Fatalf("history %d", len(history))
	}
	if best.Loss > 4 {
		t.Fatalf("best loss %.3f; TPE should get near the optimum", best.Loss)
	}
	if math.Abs(best.Params["x"]-3) > 3 || math.Abs(best.Params["y"]+2) > 3 {
		t.Fatalf("best params far from optimum: %+v", best.Params)
	}
}

func TestTPEBeatsShortRandomSearch(t *testing.T) {
	space := Space{{Name: "x", Min: 0, Max: 100}}
	obj := func(p Params) float64 {
		d := p["x"] - 61.8
		return d * d
	}
	tpe, _, _ := MinimizeResumable(obj, space, Config{Trials: 40, Warmup: 10, Gamma: 0.25, Candidates: 24, Seed: 5}, nil)
	// Pure random search = all-warmup run with the same budget and seed.
	random, _, _ := MinimizeResumable(obj, space, Config{Trials: 40, Warmup: 40, Gamma: 0.25, Candidates: 24, Seed: 5}, nil)
	if tpe.Loss > random.Loss*1.5 {
		t.Fatalf("TPE (%.3f) much worse than random search (%.3f)", tpe.Loss, random.Loss)
	}
}

func TestIntAndLogDims(t *testing.T) {
	space := Space{
		{Name: "depth", Min: 1, Max: 16, Int: true},
		{Name: "lr", Min: 1e-5, Max: 1e-1, Log: true},
	}
	obj := func(p Params) float64 {
		d := p["depth"]
		if d != math.Trunc(d) {
			t.Fatalf("integer dim sampled fraction %v", d)
		}
		if p["lr"] < 1e-5 || p["lr"] > 1e-1 {
			t.Fatalf("log dim out of range: %v", p["lr"])
		}
		// Optimum at depth 8, lr 1e-3.
		return math.Abs(d-8) + math.Abs(math.Log10(p["lr"])+3)
	}
	best, _, _ := MinimizeResumable(obj, space, Config{Trials: 50, Warmup: 12, Gamma: 0.25, Candidates: 24, Seed: 2}, nil)
	if best.Loss > 4 {
		t.Fatalf("best loss %.3f", best.Loss)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	space := Space{{Name: "x", Min: 0, Max: 1}}
	obj := func(p Params) float64 { return p["x"] }
	a, _, _ := MinimizeResumable(obj, space, Config{Trials: 20, Warmup: 5, Gamma: 0.25, Candidates: 8, Seed: 7}, nil)
	b, _, _ := MinimizeResumable(obj, space, Config{Trials: 20, Warmup: 5, Gamma: 0.25, Candidates: 8, Seed: 7}, nil)
	if a.Loss != b.Loss || a.Params["x"] != b.Params["x"] {
		t.Fatal("same seed produced different searches")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	space := Space{{Name: "x", Min: 0, Max: 1}}
	obj := func(p Params) float64 { return p["x"] }
	best, history, _ := MinimizeResumable(obj, space, Config{}, nil)
	if len(history) != 30 {
		t.Fatalf("default trials not applied: %d", len(history))
	}
	if best.Loss < 0 || best.Loss > 1 {
		t.Fatalf("loss out of range: %v", best.Loss)
	}
}
