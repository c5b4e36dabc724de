// Package eval is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Tables II-IV, Figures 4-10) plus the
// ablation studies listed in DESIGN.md, over the synthetic OSINT world.
//
// Each RunXxx function returns a typed result with a Render method that
// prints the same rows/series the paper reports, so `cmd/trail
// experiments` and the benchmarks share one implementation.
package eval

import (
	"fmt"
	"math/rand"
	"sync"

	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/osint"
)

// Options bundles harness-wide knobs.
type Options struct {
	// World configures the synthetic OSINT universe.
	World osint.WorldConfig
	// StudyMonths is the trailing window reserved for the longitudinal
	// experiments (Figs. 7-8); the main TKG is built from the remaining
	// leading months.
	StudyMonths int
	// Folds for cross-validated experiments.
	Folds int
	// Seed for fold splits and model training.
	Seed int64
	// Fast trims model sizes for quick runs (unit tests).
	Fast bool
	// ResumeDir, when non-empty, makes the sweep-style experiments
	// (robustness, tuning) journal per-unit results under this directory
	// and skip already-completed units on a rerun — crash/interrupt
	// recovery for long experiment batches.
	ResumeDir string
}

// DefaultOptions mirrors the experiment scale used in EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{World: osint.DefaultConfig(), StudyMonths: 6, Folds: 5, Seed: 1}
}

// TestOptions is a small, fast configuration for unit tests.
func TestOptions() Options {
	return Options{World: osint.TestConfig(), StudyMonths: 2, Folds: 3, Seed: 1, Fast: true}
}

// Context carries the shared state every experiment consumes: the world,
// the TKG built from the training window, and label metadata.
type Context struct {
	Opts    Options
	World   *osint.World
	TKG     *core.TKG
	Classes int
	Names   []string
	// TrainMonths is the number of leading months merged into the TKG.
	TrainMonths int

	// baseGNN caches the production GNN per layer count: the case study,
	// Figs. 7-8 and Fig. 10 all start from the same trained model, and on
	// a single core training it once matters.
	baseGNNMu sync.Mutex
	baseGNN   map[int]*baseGNNBundle
	// encOnce/encSet/encErr memoise encoders(): every GNN experiment but
	// Table IV feeds the same autoencoders, trained on the unchanging
	// base TKG.
	encOnce sync.Once
	encSet  *gnn.EncoderSet
	encErr  error
}

type baseGNNBundle struct {
	set   *gnn.EncoderSet
	in    gnn.Input
	model *gnn.Model
}

// NewContext generates the world and builds the TKG over the training
// window.
func NewContext(opts Options) (*Context, error) {
	w := osint.NewWorld(opts.World)
	trainMonths := opts.World.Months - opts.StudyMonths
	if trainMonths < 1 {
		return nil, fmt.Errorf("eval: %d months with %d study months leaves no training window",
			opts.World.Months, opts.StudyMonths)
	}
	tkg := core.NewTKG(w, w.Resolver(), core.DefaultBuildConfig())
	if _, err := tkg.Build(w.PulsesInMonths(0, trainMonths)); err != nil {
		return nil, err
	}
	return &Context{
		Opts:        opts,
		World:       w,
		TKG:         tkg,
		Classes:     len(w.Roster()),
		Names:       w.Resolver().Names(),
		TrainMonths: trainMonths,
	}, nil
}

// rng returns a deterministic source offset from the context seed so
// independent experiments don't share streams.
func (c *Context) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Opts.Seed + offset))
}

// eventLabels returns the event node IDs and labels of the TKG.
func (c *Context) eventLabels() ([]graph.NodeID, []int) {
	events := c.TKG.EventNodes()
	labels := make([]int, len(events))
	for i, ev := range events {
		labels[i] = c.TKG.G.Node(ev).Label
	}
	return events, labels
}
