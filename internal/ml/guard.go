package ml

import (
	"fmt"
	"math"

	"trail/internal/mat"
)

// Numeric guardrails for the training loops. Divergence — a NaN or Inf
// loss, or non-finite gradients — is detected at the step where it
// happens and surfaced as a typed error so the caller can roll back to
// its best checkpoint instead of persisting (or keeping in memory) a
// poisoned model.
//
// The helpers are generic over the parameter element type. Norms and the
// clip scale accumulate in float64 at every precision (see internal/mat's
// package comment); GradNorm's serial parameter-then-element chain is
// the defining grouping and must not depend on worker count.

// DivergenceError reports non-finite numerics during training.
type DivergenceError struct {
	// Quantity names what diverged ("loss", "gradient", ...).
	Quantity string
	// Epoch is the zero-based epoch in which divergence was detected.
	Epoch int
	// Value is the offending number (NaN or ±Inf) when a single value is
	// at fault.
	Value float64
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("ml: training diverged at epoch %d: non-finite %s (%v)", e.Epoch, e.Quantity, e.Value)
}

// CheckLoss returns a DivergenceError when the loss is NaN or Inf.
func CheckLoss(epoch int, loss float64) error {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return &DivergenceError{Quantity: "loss", Epoch: epoch, Value: loss}
	}
	return nil
}

// GradNorm returns the global L2 norm over every accumulated gradient.
// The sum of squares is one serial chain in parameter-then-element order:
// that chain is the defining grouping ClipGrads scales by, so it must not
// depend on worker count, and at a few tens of thousands of elements per
// step it is noise next to the matmuls it guards. It allocates nothing.
func GradNorm[T mat.Float](params []*ParamOf[T]) float64 {
	sum := 0.0
	for _, p := range params {
		for _, g := range p.G.Data {
			sum += float64(g) * float64(g)
		}
	}
	return math.Sqrt(sum)
}

// ClipGrads rescales all gradients so their global L2 norm does not
// exceed maxNorm (no-op when maxNorm <= 0 or the norm is already within
// bounds). It returns the pre-clip norm.
func ClipGrads[T mat.Float](params []*ParamOf[T], maxNorm float64) float64 {
	norm := GradNorm(params)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		for i := range p.G.Data {
			p.G.Data[i] = T(float64(p.G.Data[i]) * scale)
		}
	}
	return norm
}

// CloneParams deep-copies parameter weights (not gradients) — the
// lightweight best-checkpoint snapshot the rollback path restores from.
func CloneParams[T mat.Float](params []*ParamOf[T]) []*mat.Dense[T] {
	out := make([]*mat.Dense[T], len(params))
	for i, p := range params {
		out[i] = p.W.Clone()
	}
	return out
}

// CopyParams copies parameter weights into an existing snapshot taken
// with CloneParams, reusing its storage — the allocation-free refresh of
// the best-checkpoint snapshot in the training loops. Shapes must match.
func CopyParams[T mat.Float](snap []*mat.Dense[T], params []*ParamOf[T]) error {
	if len(snap) != len(params) {
		return fmt.Errorf("ml: CopyParams: %d snapshots for %d params", len(snap), len(params))
	}
	for i, p := range params {
		if snap[i].Rows != p.W.Rows || snap[i].Cols != p.W.Cols {
			return fmt.Errorf("ml: CopyParams: param %d is %dx%d, snapshot is %dx%d",
				i, p.W.Rows, p.W.Cols, snap[i].Rows, snap[i].Cols)
		}
	}
	for i, p := range params {
		copy(snap[i].Data, p.W.Data)
	}
	return nil
}

// RestoreParams copies snapshot weights back into params and zeroes the
// gradients. Shapes must match (they always do for a snapshot taken from
// the same model).
func RestoreParams[T mat.Float](params []*ParamOf[T], snap []*mat.Dense[T]) error {
	if len(snap) != len(params) {
		return fmt.Errorf("ml: RestoreParams: %d snapshots for %d params", len(snap), len(params))
	}
	for i, p := range params {
		if snap[i].Rows != p.W.Rows || snap[i].Cols != p.W.Cols {
			return fmt.Errorf("ml: RestoreParams: param %d is %dx%d, snapshot is %dx%d",
				i, p.W.Rows, p.W.Cols, snap[i].Rows, snap[i].Cols)
		}
	}
	for i, p := range params {
		copy(p.W.Data, snap[i].Data)
		p.G.Zero()
	}
	return nil
}
