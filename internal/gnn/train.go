package gnn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"trail/internal/graph"
	"trail/internal/mat"
	"trail/internal/ml"
)

// Architecture tags recorded inside TrainState so a checkpoint cannot be
// resumed into the wrong trainer.
const (
	archSAGE = "sage"
	archGCN  = "gcn"
)

// streamOffset separates each architecture's shuffle/sampling stream
// from its weight initialisation, which draws from Config.Seed itself.
var streamOffset = map[string]int64{archSAGE: 17, archGCN: 31}

// TrainStateOf is the epoch-boundary checkpoint of a (possibly
// interrupted) training run at element type T: the weights, the
// optimiser moments, and the RNG stream position. Restoring all three
// and re-running the remaining epochs produces final weights
// bit-identical to an uninterrupted run — the property the resume tests
// assert. The precision is part of the checkpoint's identity: float32
// states persist under a dtype-suffixed kind (see persist.go), so a
// float32 checkpoint can never silently resume a float64 run.
type TrainStateOf[T mat.Float] struct {
	// Arch is archSAGE or archGCN.
	Arch string
	// Epoch is the number of completed epochs.
	Epoch int
	// RNG is the position of the shuffle/sampling stream.
	RNG ml.RNGState
	// Opt is the Adam optimiser state (step count + both moments).
	Opt ml.AdamStateOf[T]
	// SAGE holds the model weights when Arch == archSAGE.
	SAGE *ModelOf[T]
	// GCN holds the model weights when Arch == archGCN.
	GCN *GCNOf[T]
}

// TrainState is the float64 reference instantiation of TrainStateOf.
type TrainState = TrainStateOf[float64]

// TrainOptsOf carries the crash-safety knobs threaded through TrainCtx,
// TrainGCNCtx and their epoch driver. The zero value trains exactly like
// the pre-checkpoint code path.
type TrainOptsOf[T mat.Float] struct {
	// Ctx, when non-nil, cancels training at the next epoch boundary.
	// Before returning ctx.Err() the loop emits one final checkpoint
	// through Checkpoint, so a SIGINT-driven cancellation always leaves a
	// resumable state behind.
	Ctx context.Context
	// Checkpoint, when non-nil, receives a deep-copied TrainState after
	// every CheckpointEvery-th epoch and at cancellation. Returning an
	// error aborts training with that error.
	Checkpoint func(*TrainStateOf[T]) error
	// CheckpointEvery is the epoch stride between Checkpoint calls
	// (values < 1 mean every epoch).
	CheckpointEvery int
	// Resume restarts training from a checkpointed state instead of a
	// fresh initialisation.
	Resume *TrainStateOf[T]
}

// TrainOpts is the float64 reference instantiation of TrainOptsOf.
type TrainOpts = TrainOptsOf[float64]

func (o TrainOptsOf[T]) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o TrainOptsOf[T]) every() int {
	if o.CheckpointEvery < 1 {
		return 1
	}
	return o.CheckpointEvery
}

// resumeFor validates that a resume state matches the trainer consuming
// it.
func (o TrainOptsOf[T]) resumeFor(arch string) (*TrainStateOf[T], error) {
	if o.Resume == nil {
		return nil, nil
	}
	if o.Resume.Arch != arch {
		return nil, fmt.Errorf("gnn: resume state is for %q, trainer is %q", o.Resume.Arch, arch)
	}
	return o.Resume, nil
}

// trainee is one architecture under the epoch driver: the SAGE model or
// the GCN baseline. It supplies its parameters, its checkpoint slot and a
// per-pass step; the driver owns the protocol around them.
type trainee[T mat.Float] interface {
	// spec returns the model's configuration and class count.
	spec() (Config, int)
	params() []*ml.ParamOf[T]
	// save deep-copies the weights into the state's slot for this
	// architecture.
	save(st *TrainStateOf[T])
	// stepper returns the per-pass step over in: forward with scr.visible
	// injected, softmax cross-entropy on scr.targets, and backward into
	// the parameter gradients. The step returns the pass's mean loss and
	// may draw from rng (SAGE's neighbour sampling).
	stepper(in InputOf[T], scr *trainScratch[T]) func(rng *rand.Rand) float64
}

// train is the epoch driver behind TrainCtx, FineTune and TrainGCNCtx:
// the label-visibility protocol described on TrainCtx, under the
// crash-safety knobs of opts. model builds what to train: a copy of the
// resume state's weights when opts.Resume is set (st non-nil), otherwise
// a fresh or existing model. On divergence (*ml.DivergenceError) the
// returned model carries the lowest-loss epoch's weights — rolled back,
// never NaN; on any other error it is nil.
func train[T mat.Float, M trainee[T]](arch string, in InputOf[T], trainEvents []graph.NodeID, opts TrainOptsOf[T], model func(st *TrainStateOf[T]) (M, error)) (M, error) {
	var none M
	st, err := opts.resumeFor(arch)
	if err != nil {
		return none, err
	}
	m, err := model(st)
	if err != nil {
		return none, err
	}
	cfg, classes := m.spec()
	switch {
	case len(trainEvents) < 2:
		return none, errors.New("gnn: need at least 2 training events")
	case in.Enc.Cols != cfg.Encoding:
		return none, errors.New("gnn: encoding width mismatch")
	case classes != in.Classes:
		return none, fmt.Errorf("gnn: model predicts %d classes, input has %d", classes, in.Classes)
	}
	src := ml.NewCountingSource(cfg.Seed + streamOffset[arch])
	ps := m.params()
	opt := ml.NewAdamOf(cfg.LR, ps)
	start := 0
	if st != nil {
		start = st.Epoch
		src = ml.RestoreRNG(st.RNG)
		if err := opt.Restore(st.Opt); err != nil {
			return none, err
		}
	}
	rng := rand.New(src)
	scr := newTrainScratch[T](classes, len(trainEvents))
	defer scr.ws.Release()
	step := m.stepper(in, scr)

	checkpoint := func(completed int) error {
		if opts.Checkpoint == nil {
			return nil
		}
		st := &TrainStateOf[T]{Arch: arch, Epoch: completed, RNG: src.State(), Opt: opt.State()}
		m.save(st)
		return opts.Checkpoint(st)
	}
	// Best-checkpoint rollback: track the lowest-loss epoch's weights so a
	// divergent step surfaces a typed error over a usable model instead of
	// NaN weights. The snapshot storage is allocated once and refreshed in
	// place.
	bestLoss := math.Inf(1)
	var bestW []*mat.Dense[T]
	diverged := func(err error) (M, error) {
		if bestW != nil {
			ml.RestoreParams(ps, bestW)
		}
		return m, err
	}
	ctx := opts.ctx()
	order := scr.order
	for epoch := start; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			// A cancellation (SIGINT at the CLI) still leaves a resumable
			// checkpoint behind.
			if cerr := checkpoint(epoch); cerr != nil {
				return none, cerr
			}
			return none, err
		}
		// Reset to the identity before shuffling so the permutation at
		// epoch k is a pure function of the RNG position — required for
		// bit-identical resume (in-place shuffles would compose across
		// epochs and depend on where training started).
		for i := range order {
			order[i] = i
		}
		mat.Shuffle(rng, order)
		half := len(order) / 2
		epochLoss, passes := 0.0, 0
		// Alternate which half is context vs target across the two passes.
		for pass := 0; pass < 2; pass++ {
			clear(scr.visible)
			scr.targets = scr.targets[:0]
			for i, oi := range order {
				ev := trainEvents[oi]
				if (i < half) == (pass == 0) {
					scr.visible[ev] = in.Labels[ev]
				} else {
					scr.targets = append(scr.targets, ev)
				}
			}
			if len(scr.targets) == 0 {
				continue
			}
			epochLoss += step(rng)
			if err := update(ps, opt, cfg.ClipNorm, epoch); err != nil {
				return diverged(err)
			}
			passes++
		}
		if passes > 0 {
			l := epochLoss / float64(passes)
			if err := ml.CheckLoss(epoch, l); err != nil {
				return diverged(err)
			}
			if l < bestLoss {
				bestLoss = l
				if bestW == nil {
					bestW = ml.CloneParams(ps)
				} else if err := ml.CopyParams(bestW, ps); err != nil {
					return none, err
				}
			}
		}
		if (epoch+1)%opts.every() == 0 {
			if err := checkpoint(epoch + 1); err != nil {
				return none, err
			}
		}
	}
	return m, nil
}

// update clips the accumulated gradients to clipNorm (0 disables
// clipping) and applies one optimiser step. A non-finite gradient norm is
// divergence, reported before any weight moves.
func update[T mat.Float](ps []*ml.ParamOf[T], opt *ml.AdamOf[T], clipNorm float64, epoch int) error {
	if norm := ml.ClipGrads(ps, clipNorm); math.IsNaN(norm) || math.IsInf(norm, 0) {
		return &ml.DivergenceError{Quantity: "gradient", Epoch: epoch, Value: norm}
	}
	opt.Step()
	return nil
}

// newTrainWorkspace supplies the scratch arena for every float64 fit
// loop; newTrainWorkspace32 is its float32 counterpart. Tests swap in
// mat.NewAllocWorkspaceOf to run the identical arithmetic with fresh
// allocations and assert bit-identical weights (the pooled-vs-allocating
// equivalence contract).
var (
	newTrainWorkspace   = mat.NewWorkspaceOf[float64]
	newTrainWorkspace32 = mat.NewWorkspaceOf[float32]
)

// trainWorkspaceOf dispatches to the per-precision workspace hook.
// Exotic named Float types get a non-pooled workspace.
func trainWorkspaceOf[T mat.Float]() *mat.WorkspaceOf[T] {
	switch any(T(0)).(type) {
	case float64:
		return any(newTrainWorkspace()).(*mat.WorkspaceOf[T])
	case float32:
		return any(newTrainWorkspace32()).(*mat.WorkspaceOf[T])
	default:
		return mat.NewAllocWorkspaceOf[T]()
	}
}

// trainScratch carries every buffer the epoch driver and the per-pass
// steps reuse: the workspace for matrix scratch and the small slices
// (shuffle order, targets, softmax probs, label-gradient buckets), so
// steady-state epochs allocate nothing. Each architecture's activation
// slots live in its step closure.
type trainScratch[T mat.Float] struct {
	ws      *mat.WorkspaceOf[T]
	probs   []T
	order   []int
	targets []graph.NodeID
	visible map[graph.NodeID]int
	lg      labelGradScratch[T]
}

func newTrainScratch[T mat.Float](classes, nTrain int) *trainScratch[T] {
	return &trainScratch[T]{
		ws:      trainWorkspaceOf[T](),
		probs:   make([]T, classes),
		order:   make([]int, nTrain),
		targets: make([]graph.NodeID, 0, nTrain),
		visible: make(map[graph.NodeID]int, nTrain/2+1),
		lg:      newLabelGradScratch[T](classes, nTrain),
	}
}
