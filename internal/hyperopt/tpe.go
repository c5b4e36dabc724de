// Package hyperopt implements the Tree-structured Parzen Estimator (TPE)
// hyperparameter search of Bergstra et al. (2013), which the paper uses
// (via Hyperopt) to tune the XGBoost and Random Forest classifiers.
//
// The search minimises a black-box objective over a box of numeric
// dimensions. After a random warm-up, each step splits the observation
// history at the gamma quantile into "good" and "bad" sets, fits a Parzen
// (Gaussian-kernel) density to each per dimension, and picks the
// candidate maximising the good/bad density ratio l(x)/g(x).
package hyperopt

import (
	"math"
	"math/rand"
	"sort"
)

// Dim describes one search dimension.
type Dim struct {
	Name string
	Min  float64
	Max  float64
	// Log searches in log space (Min and Max must be > 0).
	Log bool
	// Int rounds sampled values to integers.
	Int bool
}

// Space is an ordered list of dimensions.
type Space []Dim

// Params maps dimension names to chosen values.
type Params map[string]float64

// Objective evaluates a parameter assignment and returns a loss to
// minimise.
type Objective func(Params) float64

// Trial records one objective evaluation.
type Trial struct {
	Params Params
	Loss   float64
}

// Config tunes the optimiser.
type Config struct {
	// Trials is the total number of objective evaluations.
	Trials int
	// Warmup is the number of initial random trials before TPE kicks in.
	Warmup int
	// Gamma is the good/bad split quantile.
	Gamma float64
	// Candidates is the number of samples scored per TPE step.
	Candidates int
	Seed       int64
}

// DefaultConfig returns hyperopt-like defaults.
func DefaultConfig() Config {
	return Config{Trials: 30, Warmup: 10, Gamma: 0.25, Candidates: 24, Seed: 1}
}

// TrialJournal persists per-trial results so an interrupted search can be
// resumed without re-running completed objective evaluations. The
// suggestion sequence itself is deterministic (seeded RNG), so only the
// losses need to be durable.
type TrialJournal interface {
	// Lookup returns the recorded trial for index t, if present.
	Lookup(t int) (Trial, bool)
	// Record durably persists trial t before returning.
	Record(t int, tr Trial) error
}

// MinimizeResumable runs the TPE search and returns the best trial plus
// the full history. A non-nil journal adds crash recovery: completed
// trials found in the journal skip the objective call (their recorded
// losses are substituted), while the suggestion computation is replayed
// so the RNG stream — and therefore every subsequent suggestion —
// matches the uninterrupted run exactly.
func MinimizeResumable(obj Objective, space Space, cfg Config, journal TrialJournal) (Trial, []Trial, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 30
	}
	if cfg.Warmup <= 0 || cfg.Warmup > cfg.Trials {
		cfg.Warmup = cfg.Trials/3 + 1
	}
	if cfg.Gamma <= 0 || cfg.Gamma >= 1 {
		cfg.Gamma = 0.25
	}
	if cfg.Candidates <= 0 {
		cfg.Candidates = 24
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	history := make([]Trial, 0, cfg.Trials)
	best := Trial{Loss: math.Inf(1)}
	for t := 0; t < cfg.Trials; t++ {
		// Always compute the suggestion, even for journaled trials: the
		// RNG draws it consumes are part of the resumable state.
		var p Params
		if t < cfg.Warmup {
			p = randomParams(rng, space)
		} else {
			p = tpeSuggest(rng, space, history, cfg)
		}
		var trial Trial
		if journal != nil {
			if tr, ok := journal.Lookup(t); ok {
				trial = tr
			}
		}
		if trial.Params == nil {
			trial = Trial{Params: p, Loss: obj(p)}
			if journal != nil {
				if err := journal.Record(t, trial); err != nil {
					return best, history, err
				}
			}
		}
		history = append(history, trial)
		if trial.Loss < best.Loss {
			best = trial
		}
	}
	return best, history, nil
}

func randomParams(rng *rand.Rand, space Space) Params {
	p := make(Params, len(space))
	for _, d := range space {
		p[d.Name] = d.denorm(rng.Float64())
	}
	return p
}

// denorm maps a unit sample into the dimension's range (handling log and
// integer dims).
func (d Dim) denorm(u float64) float64 {
	if d.Log {
		lo, hi := math.Log(d.Min), math.Log(d.Max)
		return d.fromNorm(lo + u*(hi-lo))
	}
	return d.fromNorm(d.Min + u*(d.Max-d.Min))
}

// norm maps a value to the dimension's unit/log coordinate used by the
// Parzen densities.
func (d Dim) norm(v float64) float64 {
	if d.Log {
		return math.Log(v)
	}
	return v
}

func tpeSuggest(rng *rand.Rand, space Space, history []Trial, cfg Config) Params {
	sorted := append([]Trial(nil), history...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Loss < sorted[j].Loss })
	nGood := int(math.Ceil(cfg.Gamma * float64(len(sorted))))
	if nGood < 1 {
		nGood = 1
	}
	good, bad := sorted[:nGood], sorted[nGood:]
	if len(bad) == 0 {
		return randomParams(rng, space)
	}

	p := make(Params, len(space))
	for _, d := range space {
		gVals := valuesOf(good, d)
		bVals := valuesOf(bad, d)
		bw := bandwidth(d, gVals)
		bestScore := math.Inf(-1)
		bestVal := d.denorm(rng.Float64())
		for c := 0; c < cfg.Candidates; c++ {
			// Sample from the good Parzen mixture.
			center := gVals[rng.Intn(len(gVals))]
			x := center + rng.NormFloat64()*bw
			val := d.clampNorm(x)
			score := logParzen(x, gVals, bw) - logParzen(x, bVals, bandwidth(d, bVals))
			if score > bestScore {
				bestScore = score
				bestVal = d.fromNorm(val)
			}
		}
		p[d.Name] = bestVal
	}
	return p
}

func valuesOf(trials []Trial, d Dim) []float64 {
	out := make([]float64, len(trials))
	for i, t := range trials {
		out[i] = d.norm(t.Params[d.Name])
	}
	return out
}

// bandwidth is a Scott-style heuristic over the dimension's normalised
// range.
func bandwidth(d Dim, vals []float64) float64 {
	span := d.norm(d.Max) - d.norm(d.Min)
	if span <= 0 {
		span = 1
	}
	bw := span / math.Sqrt(float64(len(vals))+1)
	if bw < span*0.01 {
		bw = span * 0.01
	}
	return bw
}

func (d Dim) clampNorm(x float64) float64 {
	lo, hi := d.norm(d.Min), d.norm(d.Max)
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func (d Dim) fromNorm(x float64) float64 {
	var v float64
	if d.Log {
		v = math.Exp(x)
	} else {
		v = x
	}
	if d.Int {
		v = math.Round(v)
		if v < d.Min {
			v = math.Ceil(d.Min)
		}
		if v > d.Max {
			v = math.Floor(d.Max)
		}
		return v
	}
	// exp(log(x)) round trips can land epsilon outside the box.
	if v < d.Min {
		v = d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	return v
}

// logParzen evaluates the log density of a Gaussian mixture with equal
// weights centred at the given points.
func logParzen(x float64, centers []float64, bw float64) float64 {
	if len(centers) == 0 || bw <= 0 {
		return math.Inf(-1)
	}
	max := math.Inf(-1)
	terms := make([]float64, len(centers))
	for i, c := range centers {
		d := (x - c) / bw
		terms[i] = -0.5 * d * d
		if terms[i] > max {
			max = terms[i]
		}
	}
	sum := 0.0
	for _, t := range terms {
		sum += math.Exp(t - max)
	}
	return max + math.Log(sum) - math.Log(float64(len(centers))*bw*math.Sqrt(2*math.Pi))
}
