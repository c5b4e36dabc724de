package mat

import (
	"fmt"
	"sync"
)

// This file implements the memory-discipline layer of DESIGN.md §3e: a
// shape-keyed pool of matrix buffers plus a scoped Workspace arena, so the
// training and inference hot loops run allocation-free in steady state.
// Pool and Workspace are generic over the element type, and each
// concrete precision has its own shared pool so float32 and float64
// buffers never mix.
//
// Ownership rules:
//
//   - A matrix obtained from Get/GetBufOf is owned by the caller until it
//     is returned with Put/PutBufOf. Returning it transfers ownership back to
//     the pool; using (or re-Putting) it afterwards is a bug, and Put
//     panics on a detectable double-Put.
//   - Matrices handed out by Get are always fully zeroed, exactly like
//     NewOf, so a pooled kernel and an allocating kernel see identical
//     inputs. GetDirty skips the zeroing and may return arbitrary stale
//     contents; it is only for buffers whose first consumer fully
//     overwrites every element (CopyInto, SelectRowsInto, MatMul*Into,
//     SpMM*Into, SAGELayerInto, AddBiasReLUInto/ReLUMaskInto masks).
//     Accumulating consumers (SoftmaxCrossEntropyInto, the L2-backward
//     loop) must keep using Get.
//   - A Workspace is single-goroutine. Distinct goroutines must use
//     distinct Workspaces (the backing Pool is safe for concurrent use).

// PoolOf is a shape-keyed free list of Dense[T] buffers. The zero value
// is not usable; use NewPoolOf. All methods are safe for concurrent use.
type PoolOf[T Float] struct {
	mu   sync.Mutex
	free map[int64][]*Dense[T]
	// pooled tracks matrices currently sitting in the free lists so a
	// double-Put fails loudly instead of handing one buffer to two owners.
	pooled map[*Dense[T]]struct{}
}

// NewPoolOf returns an empty pool for element type T.
func NewPoolOf[T Float]() *PoolOf[T] {
	return &PoolOf[T]{free: make(map[int64][]*Dense[T]), pooled: make(map[*Dense[T]]struct{})}
}

func shapeKey(rows, cols int) int64 { return int64(rows)<<32 | int64(uint32(cols)) }

// Get returns a zeroed rows x cols matrix, reusing a previously Put
// buffer of the same shape when one is available.
func (p *PoolOf[T]) Get(rows, cols int) *Dense[T] { return p.get(rows, cols, true) }

// GetDirty is Get without the zeroing: the returned matrix may hold
// arbitrary stale values. Use only when the first consumer overwrites
// every element (see the ownership rules above).
func (p *PoolOf[T]) GetDirty(rows, cols int) *Dense[T] { return p.get(rows, cols, false) }

func (p *PoolOf[T]) get(rows, cols int, zero bool) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: Pool.Get negative dimension %dx%d", rows, cols))
	}
	key := shapeKey(rows, cols)
	p.mu.Lock()
	if list := p.free[key]; len(list) > 0 {
		m := list[len(list)-1]
		p.free[key] = list[:len(list)-1]
		delete(p.pooled, m)
		p.mu.Unlock()
		if zero {
			m.Zero()
		}
		return m
	}
	p.mu.Unlock()
	return NewOf[T](rows, cols)
}

// Put returns m to the pool. It panics on a shape-inconsistent matrix
// (len(Data) != Rows*Cols — e.g. a reshaped view of someone else's
// storage) and on a double-Put of the same buffer. Put(nil) and empty
// matrices are no-ops.
func (p *PoolOf[T]) Put(m *Dense[T]) {
	if m == nil || m.Rows*m.Cols == 0 {
		return
	}
	if len(m.Data) != m.Rows*m.Cols {
		panic(fmt.Sprintf("mat: Pool.Put shape mismatch: %dx%d with %d elements",
			m.Rows, m.Cols, len(m.Data)))
	}
	key := shapeKey(m.Rows, m.Cols)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.pooled[m]; ok {
		panic(fmt.Sprintf("mat: Pool.Put double-Put of %dx%d buffer", m.Rows, m.Cols))
	}
	p.pooled[m] = struct{}{}
	p.free[key] = append(p.free[key], m)
}

// sharedPool and sharedPool32 back the package-level GetBufOf/PutBufOf
// helpers and every Workspace created with NewWorkspaceOf.
// One pool per concrete precision: a float32 buffer can never satisfy a
// float64 borrow.
var (
	sharedPool   = NewPoolOf[float64]()
	sharedPool32 = NewPoolOf[float32]()
)

// SharedPoolOf returns the process-wide pool for element type T. Exotic
// named Float types get a fresh (unshared) pool; only float32 and
// float64 are on the zero-allocation hot path.
func SharedPoolOf[T Float]() *PoolOf[T] {
	if p, ok := any(sharedPool).(*PoolOf[T]); ok {
		return p
	}
	if p, ok := any(sharedPool32).(*PoolOf[T]); ok {
		return p
	}
	return NewPoolOf[T]()
}

// GetBufOf borrows a zeroed rows x cols matrix of element type T from
// that precision's shared pool.
func GetBufOf[T Float](rows, cols int) *Dense[T] { return SharedPoolOf[T]().Get(rows, cols) }

// GetBufDirtyOf is GetBufOf without the zeroing.
func GetBufDirtyOf[T Float](rows, cols int) *Dense[T] { return SharedPoolOf[T]().GetDirty(rows, cols) }

// PutBufOf returns a GetBufOf matrix to its precision's shared pool.
func PutBufOf[T Float](m *Dense[T]) { SharedPoolOf[T]().Put(m) }

// WorkspaceOf is a scoped scratch arena for hot loops that request the
// same sequence of buffer shapes on every iteration (an epoch, a batch,
// a propagation step). Get hands out zeroed buffers; Reset rewinds the
// cursor so the next iteration re-borrows the same buffers in order;
// Release returns everything to the backing pool.
//
// A Workspace is NOT safe for concurrent use — it is the per-goroutine
// half of the design, with the concurrent Pool underneath.
type WorkspaceOf[T Float] struct {
	pool        *PoolOf[T] // nil in allocating (reference) mode
	mats        []*Dense[T]
	vecs        [][]T
	next, vnext int
}

// NewWorkspaceOf returns a Workspace backed by T's shared pool.
func NewWorkspaceOf[T Float]() *WorkspaceOf[T] {
	return &WorkspaceOf[T]{pool: SharedPoolOf[T]()}
}

// NewWorkspaceOn returns a Workspace backed by a specific pool.
func NewWorkspaceOn[T Float](p *PoolOf[T]) *WorkspaceOf[T] { return &WorkspaceOf[T]{pool: p} }

// NewAllocWorkspaceOf returns a Workspace whose Get always allocates a
// fresh matrix — the allocation behaviour of the pre-pool code paths. It
// exists so equivalence tests can run one training loop pooled and one
// allocating and assert bit-identical results; Release and Reset drop
// all references for the GC.
func NewAllocWorkspaceOf[T Float]() *WorkspaceOf[T] { return &WorkspaceOf[T]{} }

// Get returns a zeroed rows x cols matrix valid until the next Reset or
// Release. Buffers are matched to call sites by cursor position, so a
// loop that issues the same Get sequence every iteration reuses the same
// storage with zero allocation.
func (w *WorkspaceOf[T]) Get(rows, cols int) *Dense[T] { return w.get(rows, cols, true) }

// GetDirty is Get without the zeroing — the memset is the dominant cost
// of re-borrowing a large buffer, and most kernels overwrite their
// destination entirely. The returned matrix may hold stale contents from
// an earlier borrow; use only when the first consumer writes every
// element. In allocating reference mode it returns a fresh (zeroed)
// matrix, which is indistinguishable to a full-overwrite consumer, so
// pooled-vs-allocating equivalence is preserved.
func (w *WorkspaceOf[T]) GetDirty(rows, cols int) *Dense[T] { return w.get(rows, cols, false) }

func (w *WorkspaceOf[T]) get(rows, cols int, zero bool) *Dense[T] {
	if w.pool == nil { // allocating reference mode
		m := NewOf[T](rows, cols)
		w.mats = append(w.mats, m)
		w.next = len(w.mats)
		return m
	}
	n := rows * cols
	if w.next < len(w.mats) {
		m := w.mats[w.next]
		if cap(m.Data) >= n {
			w.next++
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:n]
			if zero {
				m.Zero()
			}
			return m
		}
		// Shape grew past this slot's capacity: retire the old buffer and
		// take a fitting one.
		w.pool.Put(m)
		m = w.pool.get(rows, cols, zero)
		w.mats[w.next] = m
		w.next++
		return m
	}
	m := w.pool.get(rows, cols, zero)
	w.mats = append(w.mats, m)
	w.next = len(w.mats)
	return m
}

// VecDirty returns a length-n scratch slice under the same cursor
// discipline as Get, without zeroing a re-borrowed slice: its first
// consumer must write every element.
func (w *WorkspaceOf[T]) VecDirty(n int) []T {
	if w.vnext < len(w.vecs) && cap(w.vecs[w.vnext]) >= n && w.pool != nil {
		v := w.vecs[w.vnext][:n]
		w.vnext++
		return v
	}
	v := make([]T, n)
	if w.vnext < len(w.vecs) {
		w.vecs[w.vnext] = v
	} else {
		w.vecs = append(w.vecs, v)
	}
	w.vnext++
	return v
}

// Reset rewinds the cursors: buffers handed out so far may be re-borrowed
// by subsequent Gets (in the same order) and must no longer be used under
// their old references. In allocating mode it instead drops all
// references so every Get stays fresh.
func (w *WorkspaceOf[T]) Reset() {
	if w.pool == nil {
		w.mats, w.vecs = nil, nil
	}
	w.next, w.vnext = 0, 0
}

// Release returns every buffer to the backing pool and empties the
// workspace, which remains usable afterwards.
func (w *WorkspaceOf[T]) Release() {
	if w.pool != nil {
		for _, m := range w.mats {
			w.pool.Put(m)
		}
	}
	w.mats, w.vecs = nil, nil
	w.next, w.vnext = 0, 0
}
