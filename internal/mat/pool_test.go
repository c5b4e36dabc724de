package mat

import (
	"math/rand"
	"sync"
	"testing"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestPoolReusesZeroedBuffers(t *testing.T) {
	p := NewPoolOf[float64]()
	m := p.Get(3, 4)
	m.Fill(7)
	p.Put(m)
	got := p.Get(3, 4)
	if got != m {
		t.Fatalf("expected the pooled buffer back")
	}
	for i, v := range got.Data {
		if v != 0 {
			t.Fatalf("Get returned unzeroed buffer: Data[%d] = %v", i, v)
		}
	}
}

func TestPoolGetDirtySkipsZeroing(t *testing.T) {
	p := NewPoolOf[float64]()
	m := p.Get(3, 4)
	m.Fill(7)
	p.Put(m)
	got := p.GetDirty(3, 4)
	if got != m {
		t.Fatalf("expected the pooled buffer back")
	}
	if got.Data[0] != 7 {
		t.Fatalf("GetDirty zeroed the buffer; want stale contents")
	}
	// A miss falls through to New, which is zeroed.
	fresh := p.GetDirty(5, 5)
	for _, v := range fresh.Data {
		if v != 0 {
			t.Fatalf("GetDirty miss should New a zeroed matrix")
		}
	}
}

func TestPoolShapeKeying(t *testing.T) {
	p := NewPoolOf[float64]()
	m := p.Get(2, 6)
	p.Put(m)
	// Same element count, different shape: must not satisfy the request.
	other := p.Get(3, 4)
	if other == m {
		t.Fatalf("2x6 buffer returned for a 3x4 request")
	}
}

func TestPoolPutShapeMismatchPanics(t *testing.T) {
	p := NewPoolOf[float64]()
	bad := &Matrix{Rows: 2, Cols: 2, Data: make([]float64, 6)}
	mustPanic(t, "shape-mismatch Put", func() { p.Put(bad) })
}

func TestPoolDoublePutPanics(t *testing.T) {
	p := NewPoolOf[float64]()
	m := p.Get(2, 2)
	p.Put(m)
	mustPanic(t, "double Put", func() { p.Put(m) })
}

func TestPoolNilAndEmptyPutNoOp(t *testing.T) {
	p := NewPoolOf[float64]()
	p.Put(nil)
	p.Put(&Matrix{Rows: 0, Cols: 5})
}

func TestPoolNegativeGetPanics(t *testing.T) {
	p := NewPoolOf[float64]()
	mustPanic(t, "negative Get", func() { p.Get(-1, 3) })
}

// TestPoolConcurrentGetPut is primarily a race-detector test (`make
// race`): many goroutines churning Get/GetDirty/Put on one pool must not
// race, and no buffer may be handed to two owners at once.
func TestPoolConcurrentGetPut(t *testing.T) {
	p := NewPoolOf[float64]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				rows, cols := 1+rng.Intn(4), 1+rng.Intn(4)
				var m *Matrix
				if rng.Intn(2) == 0 {
					m = p.Get(rows, cols)
				} else {
					m = p.GetDirty(rows, cols)
				}
				m.Fill(float64(i))
				p.Put(m)
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestWorkspaceCursorReuse(t *testing.T) {
	w := NewWorkspaceOn(NewPoolOf[float64]())
	defer w.Release()
	a := w.Get(2, 3)
	b := w.Get(4, 4)
	a.Fill(1)
	b.Fill(2)
	w.Reset()
	a2 := w.Get(2, 3)
	b2 := w.Get(4, 4)
	if a2 != a || b2 != b {
		t.Fatalf("Reset + same Get sequence should re-borrow the same buffers")
	}
	for _, v := range a2.Data {
		if v != 0 {
			t.Fatalf("re-borrowed Get buffer not zeroed")
		}
	}
}

func TestWorkspaceGetDirtyKeepsStaleContents(t *testing.T) {
	w := NewWorkspaceOn(NewPoolOf[float64]())
	defer w.Release()
	a := w.GetDirty(2, 3)
	a.Fill(9)
	w.Reset()
	a2 := w.GetDirty(2, 3)
	if a2 != a {
		t.Fatalf("expected the same slot back")
	}
	if a2.Data[0] != 9 {
		t.Fatalf("GetDirty zeroed a re-borrowed buffer")
	}
	w.Reset()
	a3 := w.Get(2, 3)
	if a3 != a || a3.Data[0] != 0 {
		t.Fatalf("Get after GetDirty should zero the same slot")
	}
}

func TestWorkspaceReshapeWithinCapacity(t *testing.T) {
	w := NewWorkspaceOn(NewPoolOf[float64]())
	defer w.Release()
	big := w.Get(4, 4)
	w.Reset()
	small := w.Get(2, 3)
	if &small.Data[0] != &big.Data[:1][0] {
		t.Fatalf("smaller request should reshape the slot's storage in place")
	}
	if small.Rows != 2 || small.Cols != 3 || len(small.Data) != 6 {
		t.Fatalf("reshape got %dx%d len %d", small.Rows, small.Cols, len(small.Data))
	}
	w.Reset()
	grown := w.Get(8, 8)
	if grown.Rows != 8 || grown.Cols != 8 {
		t.Fatalf("grown request got %dx%d", grown.Rows, grown.Cols)
	}
}

func TestWorkspaceVecDirty(t *testing.T) {
	w := NewWorkspaceOn(NewPoolOf[float64]())
	defer w.Release()
	v := w.VecDirty(4)
	for i := range v {
		v[i] = 5
	}
	w.Reset()
	v2 := w.VecDirty(4)
	if &v2[0] != &v[0] || v2[0] != 5 {
		t.Fatalf("VecDirty should re-borrow the same storage unzeroed")
	}
}

func TestWorkspaceReleaseReturnsToPool(t *testing.T) {
	p := NewPoolOf[float64]()
	w := NewWorkspaceOn(p)
	m := w.Get(3, 3)
	w.Release()
	if got := p.Get(3, 3); got != m {
		t.Fatalf("Release should return buffers to the backing pool")
	}
	// The workspace stays usable after Release.
	again := w.Get(2, 2)
	if again == nil || again.Rows != 2 {
		t.Fatalf("workspace unusable after Release")
	}
	w.Release()
}

func TestAllocWorkspaceAlwaysFresh(t *testing.T) {
	w := NewAllocWorkspaceOf[float64]()
	a := w.Get(2, 2)
	a.Fill(3)
	w.Reset()
	b := w.Get(2, 2)
	if b == a {
		t.Fatalf("alloc workspace must hand out fresh matrices")
	}
	for _, v := range b.Data {
		if v != 0 {
			t.Fatalf("alloc workspace Get not zeroed")
		}
	}
	// GetDirty in alloc mode is still fresh (and therefore zeroed): a
	// full-overwrite consumer cannot tell the difference, which is what
	// keeps pooled-vs-allocating training runs bit-identical.
	c := w.GetDirty(2, 2)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatalf("alloc workspace GetDirty should be a fresh zeroed matrix")
		}
	}
	w.Release()
}

func TestWorkspaceSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	w := NewWorkspaceOn(NewPoolOf[float64]())
	defer w.Release()
	iter := func() {
		w.Reset()
		a := w.Get(8, 8)
		b := w.GetDirty(8, 4)
		v := w.VecDirty(16)
		a.Data[0], b.Data[0], v[0] = 1, 2, 3
	}
	iter() // warm the slots
	allocs := testing.AllocsPerRun(100, iter)
	if allocs != 0 {
		t.Fatalf("steady-state workspace iteration allocates %v times", allocs)
	}
}
