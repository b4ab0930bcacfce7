package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gedlib/internal/obs"
)

// batcher is the per-graph write coalescer: mutation requests enqueue
// onto a bounded queue, and a single flusher goroutine drains it in
// merged batches — when FlushOps operations are pending, when MaxDelay
// has elapsed since the flusher saw work, or at close. Each flush costs
// one graph lock acquisition and one Session.Apply regardless of how
// many requests it merged, which is what keeps a write-heavy burst from
// paying the maintenance pipeline per request. While a flush is
// running, newly arriving requests pile up and form the next batch —
// classic group commit, so coalescing deepens exactly when the system
// is busiest.
type batcher struct {
	ent      *GraphEntry
	flushOps int
	maxDelay time.Duration
	maxQueue int

	mu        sync.Mutex
	queue     []*writeReq
	queuedOps int
	closed    bool

	// wake carries "the queue became interesting" edges to the flusher;
	// buffered so enqueuers never block on it.
	wake chan struct{}
	done chan struct{}

	// Flush counters live in the catalog's metrics registry, per-graph
	// labeled — one source of truth for both /statsz and /metricsz.
	// maxBatchOps is a running maximum, which no counter models.
	flushes     *obs.Counter
	flushedOps  *obs.Counter
	flushedReqs *obs.Counter
	rejected    *obs.Counter
	maxBatchOps atomic.Uint64
}

// writeReq is one enqueued mutation request and its completion slot.
// at is its enqueue time — the flush that carries it reports the
// oldest request's wait as the queue_wait pipeline stage.
type writeReq struct {
	ops  []Op
	at   time.Time
	res  WriteResult
	done chan WriteResult // buffered(1); the flusher completes it
}

func newBatcher(ent *GraphEntry, cfg Config) *batcher {
	reg := ent.cat.reg
	return &batcher{
		ent:      ent,
		flushOps: cfg.FlushOps,
		maxDelay: cfg.MaxDelay,
		maxQueue: cfg.MaxQueueOps,
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		flushes: reg.Counter("ged_serve_flushes_total",
			"write batches flushed", "graph", ent.name),
		flushedOps: reg.Counter("ged_serve_flushed_ops_total",
			"operations carried by flushed batches", "graph", ent.name),
		flushedReqs: reg.Counter("ged_serve_flushed_reqs_total",
			"requests coalesced into flushed batches", "graph", ent.name),
		rejected: reg.Counter("ged_serve_rejected_writes_total",
			"writes rejected by queue backpressure", "graph", ent.name),
	}
}

// enqueue adds ops to the queue and waits for the flush containing
// them. Backpressure is immediate: a queue past MaxQueueOps rejects
// with ErrQueueFull rather than buffering. A ctx expiry abandons only
// the wait — the ops are already queued and will still apply.
func (b *batcher) enqueue(ctx context.Context, ops []Op) (WriteResult, error) {
	if len(ops) == 0 {
		// The flusher gates on pending *ops*, so an op-less request
		// would sit in the queue until unrelated traffic flushed it;
		// reject it instead of blocking the caller indefinitely.
		return WriteResult{}, errors.New("serve: empty write request")
	}
	if len(ops) > b.maxQueue {
		// Larger than the queue itself: permanent, not backpressure.
		return WriteResult{}, ErrTooManyOps
	}
	req := &writeReq{ops: ops, at: time.Now(), done: make(chan WriteResult, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return WriteResult{}, ErrClosed
	}
	if b.queuedOps+len(ops) > b.maxQueue {
		b.mu.Unlock()
		b.rejected.Inc()
		return WriteResult{}, ErrQueueFull
	}
	b.queue = append(b.queue, req)
	b.queuedOps += len(ops)
	b.mu.Unlock()
	b.signal()

	select {
	case res := <-req.done:
		return res, res.Err
	case <-ctx.Done():
		return WriteResult{}, ctx.Err()
	}
}

func (b *batcher) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// queueDepth reports the currently pending op count.
func (b *batcher) queueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queuedOps
}

// close stops the flusher after draining every pending request.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.signal()
	<-b.done
}

// take removes and returns the whole pending queue.
func (b *batcher) take() []*writeReq {
	b.mu.Lock()
	reqs := b.queue
	b.queue = nil
	b.queuedOps = 0
	b.mu.Unlock()
	return reqs
}

// run is the flusher loop; Catalog.Create starts it.
func (b *batcher) run() {
	defer close(b.done)
	for {
		b.mu.Lock()
		pending, closed := b.queuedOps, b.closed
		b.mu.Unlock()

		if pending == 0 {
			if closed {
				return
			}
			<-b.wake
			continue
		}

		// A batch is open. Hold it for up to maxDelay to let concurrent
		// writers coalesce, but flush immediately on the size trigger
		// (or when shutting down).
		if pending < b.flushOps && !closed {
			timer := time.NewTimer(b.maxDelay)
		window:
			for {
				select {
				case <-b.wake:
					b.mu.Lock()
					full := b.queuedOps >= b.flushOps || b.closed
					b.mu.Unlock()
					if full {
						break window
					}
				case <-timer.C:
					break window
				}
			}
			timer.Stop()
		}

		reqs := b.take()
		if len(reqs) == 0 {
			continue
		}
		ops := 0
		for _, r := range reqs {
			ops += len(r.ops)
		}
		// Counted before the flush completes its requests, so a writer
		// that reads the stats after its ack finds its flush there.
		b.flushes.Inc()
		b.flushedReqs.Add(uint64(len(reqs)))
		b.flushedOps.Add(uint64(ops))
		for {
			cur := b.maxBatchOps.Load()
			if uint64(ops) <= cur || b.maxBatchOps.CompareAndSwap(cur, uint64(ops)) {
				break
			}
		}
		b.ent.flushBatch(reqs)
	}
}

// stats snapshots the batcher counters into an EntryStats skeleton.
func (b *batcher) stats() EntryStats {
	s := EntryStats{
		QueueOps:       b.queueDepth(),
		Flushes:        b.flushes.Value(),
		FlushedOps:     b.flushedOps.Value(),
		FlushedReqs:    b.flushedReqs.Value(),
		RejectedWrites: b.rejected.Value(),
		MaxBatchOps:    b.maxBatchOps.Load(),
	}
	if s.Flushes > 0 {
		s.AvgBatchOps = float64(s.FlushedOps) / float64(s.Flushes)
		s.AvgBatchReqs = float64(s.FlushedReqs) / float64(s.Flushes)
	}
	return s
}
