package ml

import (
	"fmt"

	"trail/internal/mat"
)

// AdamStateOf is the serialisable optimiser state: hyperparameters, step
// count and both moment accumulators. Together with the model weights and
// the RNG position it is everything a training loop needs to resume
// bit-identically after a crash. Moments are stored at the model's
// element type; the hyperparameters stay float64 at every precision.
type AdamStateOf[T mat.Float] struct {
	LR, Beta1, Beta2, Eps float64
	T                     int
	M, V                  []*mat.Dense[T]
}

// State deep-copies the optimiser state for checkpointing (safe to hand
// to an asynchronous writer while training continues).
func (a *AdamOf[T]) State() AdamStateOf[T] {
	st := AdamStateOf[T]{LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps, T: a.t}
	for i := range a.m {
		st.M = append(st.M, a.m[i].Clone())
		st.V = append(st.V, a.v[i].Clone())
	}
	return st
}

// Restore overwrites the optimiser with a checkpointed state. The state
// must have been captured from an optimiser over the same parameter
// shapes; a mismatch is reported rather than silently corrupting moments.
func (a *AdamOf[T]) Restore(st AdamStateOf[T]) error {
	if len(st.M) != len(a.params) || len(st.V) != len(a.params) {
		return fmt.Errorf("ml: Adam.Restore: state has %d/%d moment tensors, optimiser has %d params",
			len(st.M), len(st.V), len(a.params))
	}
	for i, p := range a.params {
		if st.M[i].Rows != p.W.Rows || st.M[i].Cols != p.W.Cols ||
			st.V[i].Rows != p.W.Rows || st.V[i].Cols != p.W.Cols {
			return fmt.Errorf("ml: Adam.Restore: param %d is %dx%d, state moment is %dx%d",
				i, p.W.Rows, p.W.Cols, st.M[i].Rows, st.M[i].Cols)
		}
	}
	a.LR, a.Beta1, a.Beta2, a.Eps, a.t = st.LR, st.Beta1, st.Beta2, st.Eps, st.T
	a.m = a.m[:0]
	a.v = a.v[:0]
	for i := range st.M {
		a.m = append(a.m, st.M[i].Clone())
		a.v = append(a.v, st.V[i].Clone())
	}
	return nil
}
