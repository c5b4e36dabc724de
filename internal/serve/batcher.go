package serve

import (
	"context"
	"sync"
	"time"

	"trail/internal/graph"
)

// pending is one attribute request waiting for a batch slot. The done
// channel is buffered so the batch worker never blocks on a caller that
// timed out between flush and demux.
type pending struct {
	kind graph.NodeKind
	key  string
	ctx  context.Context
	done chan result
}

// result is one demuxed answer: the snapshot the answer came from (for
// epoch/precision reporting), the resolved node, and its probability
// row. err is set instead when the key did not resolve.
type result struct {
	snap  *Snapshot
	node  graph.NodeID
	probs []float64
	err   error
}

// batcher coalesces concurrent requests into shared batches.
// The worker goroutine blocks for the first request, then keeps
// collecting until the batch is full or maxWait has elapsed since that
// first arrival — the classic max-batch/max-wait coalescing queue. With
// maxBatch<=1 or maxWait<=0 it degrades to a non-waiting fast path that
// still drains whatever is already queued (so a burst under load forms a
// batch even with no deliberate delay).
type batcher struct {
	ch       chan *pending
	stop     chan struct{}
	maxBatch int
	maxWait  time.Duration
	flush    func([]*pending)
	wg       sync.WaitGroup
}

func newBatcher(maxBatch int, maxWait time.Duration, queueCap int, flush func([]*pending)) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queueCap < maxBatch {
		queueCap = maxBatch
	}
	b := &batcher{
		ch:       make(chan *pending, queueCap),
		stop:     make(chan struct{}),
		maxBatch: maxBatch,
		maxWait:  maxWait,
		flush:    flush,
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// enqueue hands a request to the worker. It reports false when the
// server is shutting down or the request's context expired while the
// queue was full — the caller maps those to 503/504. The leading stop
// check makes post-close enqueues fail deterministically; the buffered
// send would otherwise still be ready and could win the select.
func (b *batcher) enqueue(p *pending) bool {
	select {
	case <-b.stop:
		return false
	default:
	}
	select {
	case b.ch <- p:
		return true
	case <-b.stop:
		return false
	case <-p.ctx.Done():
		return false
	}
}

// close stops accepting new requests, lets the worker drain everything
// already queued, and waits for it to exit. Requests admitted before
// close are always answered — the graceful-drain half of shutdown. The
// server calls this only after http.Server.Shutdown has returned, so no
// handler can race an enqueue past the final drain sweep.
func (b *batcher) close() {
	close(b.stop)
	b.wg.Wait()
}

func (b *batcher) run() {
	defer b.wg.Done()
	for {
		var first *pending
		select {
		case first = <-b.ch:
		case <-b.stop:
			b.drain()
			return
		}
		b.flush(b.collect(first))
	}
}

// collect gathers one batch starting from its first member. The wait
// timer starts at the first arrival, so a lone request under light load
// pays at most maxWait of added latency and zero when maxWait is 0.
func (b *batcher) collect(first *pending) []*pending {
	batch := append(make([]*pending, 0, b.maxBatch), first)
	if b.maxWait <= 0 {
		// Fast path: no deliberate delay, but sweep the queue so
		// concurrent arrivals still share a pass.
		for len(batch) < b.maxBatch {
			select {
			case p := <-b.ch:
				batch = append(batch, p)
			default:
				return batch
			}
		}
		return batch
	}
	timer := time.NewTimer(b.maxWait)
	defer timer.Stop()
	for len(batch) < b.maxBatch {
		select {
		case p := <-b.ch:
			batch = append(batch, p)
		case <-timer.C:
			return batch
		case <-b.stop:
			return batch
		}
	}
	return batch
}

// drain flushes whatever is still queued at shutdown, in maxBatch-sized
// groups, without waiting for stragglers.
func (b *batcher) drain() {
	for {
		batch := make([]*pending, 0, b.maxBatch)
		for len(batch) < b.maxBatch {
			select {
			case p := <-b.ch:
				batch = append(batch, p)
				continue
			default:
			}
			break
		}
		if len(batch) == 0 {
			return
		}
		b.flush(batch)
	}
}
