package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"trail/internal/graph"
)

// flushRec records every batch the worker flushes and signals sizes on a
// channel so tests can wait without sleeping.
type flushRec struct {
	mu      sync.Mutex
	batches [][]*pending
	sizes   chan int
}

func newFlushRec() *flushRec { return &flushRec{sizes: make(chan int, 64)} }

func (r *flushRec) flush(b []*pending) {
	r.mu.Lock()
	r.batches = append(r.batches, append([]*pending(nil), b...))
	r.mu.Unlock()
	r.sizes <- len(b)
}

func (r *flushRec) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.batches {
		n += len(b)
	}
	return n
}

func testPending(key string) *pending {
	return &pending{kind: graph.KindEvent, key: key, ctx: context.Background(), done: make(chan result, 1)}
}

func waitSize(t *testing.T, r *flushRec) int {
	t.Helper()
	select {
	case n := <-r.sizes:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("no flush within 5s")
		return 0
	}
}

// TestBatcherMaxBatchFlush: a full batch flushes immediately, without
// waiting out maxWait.
func TestBatcherMaxBatchFlush(t *testing.T) {
	rec := newFlushRec()
	b := newBatcher(4, time.Hour, 16, rec.flush)
	defer b.close()
	for i := 0; i < 4; i++ {
		if !b.enqueue(testPending("k")) {
			t.Fatal("enqueue refused")
		}
	}
	if n := waitSize(t, rec); n != 4 {
		t.Fatalf("flushed %d, want the full batch of 4", n)
	}
}

// TestBatcherMaxWaitFlush: a partial batch flushes once maxWait elapses
// after the first arrival.
func TestBatcherMaxWaitFlush(t *testing.T) {
	rec := newFlushRec()
	b := newBatcher(64, 50*time.Millisecond, 64, rec.flush)
	defer b.close()
	start := time.Now()
	for i := 0; i < 3; i++ {
		b.enqueue(testPending("k"))
	}
	if n := waitSize(t, rec); n != 3 {
		t.Fatalf("flushed %d, want 3", n)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("flush took %v, should be ~maxWait", elapsed)
	}
}

// TestBatcherSingleRequestFastPath: with maxWait=0 a lone request is
// flushed immediately as a batch of one.
func TestBatcherSingleRequestFastPath(t *testing.T) {
	rec := newFlushRec()
	b := newBatcher(8, 0, 16, rec.flush)
	defer b.close()
	b.enqueue(testPending("solo"))
	if n := waitSize(t, rec); n != 1 {
		t.Fatalf("flushed %d, want 1", n)
	}
}

// TestBatcherOpportunisticCoalesce: even with maxWait=0, requests that
// queued up while the worker was busy share the next batch.
func TestBatcherOpportunisticCoalesce(t *testing.T) {
	rec := newFlushRec()
	gate := make(chan struct{})
	var first sync.Once
	b := newBatcher(8, 0, 16, func(batch []*pending) {
		rec.flush(batch)
		first.Do(func() { <-gate }) // hold the worker so the burst queues behind it
	})
	defer b.close()
	b.enqueue(testPending("head"))
	if n := waitSize(t, rec); n != 1 {
		t.Fatalf("first flush %d, want 1", n)
	}
	// The worker is now parked inside the first flush; the burst buffers.
	for i := 0; i < 5; i++ {
		b.enqueue(testPending("burst"))
	}
	close(gate)
	if n := waitSize(t, rec); n != 5 {
		t.Fatalf("second flush %d, want the 5-request burst in one batch", n)
	}
}

// TestBatcherDrainOnClose: close answers everything already admitted —
// both the batch the worker is holding open and the queue behind it.
func TestBatcherDrainOnClose(t *testing.T) {
	rec := newFlushRec()
	b := newBatcher(4, time.Hour, 64, rec.flush)
	for i := 0; i < 7; i++ {
		if !b.enqueue(testPending("k")) {
			t.Fatal("enqueue refused")
		}
	}
	if n := waitSize(t, rec); n != 4 {
		t.Fatalf("pre-close flush %d, want 4", n)
	}
	b.close() // worker holds [3] against a 1h timer; close must flush it
	if got := rec.total(); got != 7 {
		t.Fatalf("flushed %d of 7 admitted requests", got)
	}
}

// TestBatcherEnqueueAfterClose: a drained batcher refuses new work.
func TestBatcherEnqueueAfterClose(t *testing.T) {
	b := newBatcher(4, 0, 16, func([]*pending) {})
	b.close()
	if b.enqueue(testPending("late")) {
		t.Fatal("enqueue accepted after close")
	}
}

// TestBatcherEnqueueCanceledOnFullQueue: a caller whose context dies
// while the queue is full gets a refusal, not a deadlock.
func TestBatcherEnqueueCanceledOnFullQueue(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	b := newBatcher(1, 0, 1, func([]*pending) {
		once.Do(func() { close(started) })
		<-gate // closed at cleanup, so later flushes pass straight through
	})
	defer func() { close(gate); b.close() }()
	b.enqueue(testPending("held"))
	<-started                        // worker is now stuck inside flush
	b.enqueue(testPending("queued")) // fills the 1-slot queue
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &pending{kind: graph.KindEvent, key: "doomed", ctx: ctx, done: make(chan result, 1)}
	okc := make(chan bool, 1)
	go func() { okc <- b.enqueue(p) }()
	select {
	case ok := <-okc:
		if ok {
			t.Fatal("enqueue accepted a canceled request into a full queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue blocked despite canceled context")
	}
}
