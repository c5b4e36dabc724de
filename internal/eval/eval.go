// Package eval is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Tables II-IV, Figures 4-10) plus the
// ablation studies listed in DESIGN.md, over the synthetic OSINT world.
//
// Each RunXxx function returns a typed result with a Render method that
// prints the same rows/series the paper reports, so `cmd/trail
// experiments` and the benchmarks share one implementation.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"trail/internal/core"
	"trail/internal/gnn"
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
	// encOnce/encSet/encErr memoise encoders(): every GNN experiment
	// feeds the same autoencoders, trained on the unchanging base TKG.
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
	ctx, _, err := newContext(opts, func(w *osint.World) osint.FallibleServices { return osint.Infallible(w) })
	return ctx, err
}

// newContext generates the world and builds the TKG over the training
// window, enriching through the services stack svc puts in front of the
// world. It returns the build report too.
func newContext(opts Options, svc func(*osint.World) osint.FallibleServices) (*Context, *core.BuildReport, error) {
	w := osint.NewWorld(opts.World)
	trainMonths := opts.World.Months - opts.StudyMonths
	if trainMonths < 1 {
		return nil, nil, fmt.Errorf("eval: %d months with %d study months leaves no training window",
			opts.World.Months, opts.StudyMonths)
	}
	tkg := core.NewTKGFallible(svc(w), w.Resolver(), core.DefaultBuildConfig())
	rep, err := tkg.Build(w.PulsesInMonths(0, trainMonths))
	if err != nil {
		return nil, nil, err
	}
	return &Context{
		Opts:        opts,
		World:       w,
		TKG:         tkg,
		Classes:     len(w.Roster()),
		Names:       w.Resolver().Names(),
		TrainMonths: trainMonths,
	}, rep, nil
}

// rng returns a deterministic source offset from the context seed so
// independent experiments don't share streams.
func (c *Context) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Opts.Seed + offset))
}

// AEConfig is the autoencoder configuration of every experiment and of
// `trail train`: DefaultAEConfig, cut to 2 epochs and 32 hidden units in
// Fast mode.
func (c *Context) AEConfig() gnn.AEConfig {
	cfg := gnn.DefaultAEConfig()
	if c.Opts.Fast {
		cfg.Epochs = 2
		cfg.Hidden = 32
	}
	return cfg
}

// GNNConfig is the GraphSAGE configuration of the given depth that the
// experiments and `trail train` start from: 64 hidden units and 60
// epochs (16 and 10 in Fast mode) over AEConfig's encoding, seeded with
// the context seed.
func (c *Context) GNNConfig(layers int) gnn.Config {
	cfg := gnn.Config{
		Layers: layers, Hidden: 64, Encoding: c.AEConfig().Encoding,
		LR: 1e-2, Epochs: 60, Seed: c.Opts.Seed,
	}
	if c.Opts.Fast {
		cfg.Hidden = 16
		cfg.Epochs = 10
	}
	return cfg
}

// encoders returns the autoencoder set trained on the base TKG with
// AEConfig's settings, training it on first use.
func (c *Context) encoders() (*gnn.EncoderSet, error) {
	c.encOnce.Do(func() {
		c.encSet, c.encErr = gnn.TrainEncodersCtx(context.TODO(), c.TKG.G, c.TKG.Features, c.AEConfig(), gnn.EncoderTrainOpts{})
	})
	return c.encSet, c.encErr
}

// trainBaseGNN trains (or returns the cached) production GNN on the base
// TKG: the case study, Figs. 7-8 and Fig. 10 all share it.
func (c *Context) trainBaseGNN(layers int) (*gnn.EncoderSet, gnn.Input, *gnn.Model, error) {
	c.baseGNNMu.Lock()
	defer c.baseGNNMu.Unlock()
	if b, ok := c.baseGNN[layers]; ok {
		return b.set, b.in, b.model, nil
	}

	set, err := c.encoders()
	if err != nil {
		return nil, gnn.Input{}, nil, err
	}
	in := gnn.BuildInput(c.TKG.G, c.TKG.Features, set, c.Classes)
	model, err := gnn.TrainCtx(in, c.TKG.EventNodes(), c.GNNConfig(layers), gnn.TrainOpts{})
	if err != nil {
		return nil, gnn.Input{}, nil, err
	}
	if c.baseGNN == nil {
		c.baseGNN = make(map[int]*baseGNNBundle)
	}
	c.baseGNN[layers] = &baseGNNBundle{set: set, in: in, model: model}
	return set, in, model, nil
}

// classOf returns the class index of the named APT.
func (c *Context) classOf(name string) (int, error) {
	for i, n := range c.Names {
		if n == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("eval: unknown APT %q", name)
}

// nameOf returns the name of a predicted class, or UNATTRIBUTED.
func (c *Context) nameOf(class int) string {
	if class < 0 || class >= len(c.Names) {
		return "UNATTRIBUTED"
	}
	return c.Names[class]
}
