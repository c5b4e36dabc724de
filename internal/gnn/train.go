package gnn

import (
	"context"
	"fmt"

	"trail/internal/mat"
	"trail/internal/ml"
)

// Architecture tags recorded inside TrainState so a checkpoint cannot be
// resumed into the wrong trainer.
const (
	archSAGE = "sage"
	archGCN  = "gcn"
)

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
// TrainGCNCtx and their fit loops. The zero value trains exactly like the
// pre-checkpoint code path.
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
