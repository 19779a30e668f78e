package lucidd

import "context"

// Async telemetry ingest. A POST /metrics or POST /agents handler always
// does the same work: validate, route, build the walOp. With
// Options.IngestQueue == 0 it then applies the op inline (shard.applyOne) and
// answers with the result; with IngestQueue > 0 it enqueues the op on the
// owning shard's bounded queue instead, and a single applier goroutine per
// shard drains the queue in batches through the same applyOpsLocked — one
// mutex acquisition, one stale sweep and one fsync per batch. The request is
// acknowledged with 202 Accepted at enqueue time — or refused with 429 +
// Retry-After when the queue is full (backpressure), so an overloaded shard
// sheds telemetry load explicitly instead of queueing unboundedly.
//
// Ordering and visibility contract:
//
//   - Per-shard FIFO: ops are applied in exact enqueue order, so a job's
//     samples fold into its running-mean profile in the same order the
//     server acknowledged them — bit-identical to synchronous ingest.
//   - Flush barriers: a barrier enqueued behind the acked ops blocks until
//     the applier has applied AND fsynced everything ahead of it. Read
//     paths (/jobs, /schedule, /agents), /chaos mutations and Shutdown all
//     barrier first, so every acknowledged sample is observable there and
//     no chaos op can overtake telemetry it arrived after.
//   - Durability: an acked-but-still-queued op is in memory only, same
//     class as sync mode's unsynced WAL tail (telemetry the agents re-send
//     anyway); an op a barrier has flushed is on disk. Recovery replays
//     exactly the flushed set per shard.
//
// The throughput win on the request path is O(1) enqueue instead of
// lock + apply + WAL append, and on the apply path one fsync and one stale
// sweep per batch instead of per heartbeat.

// ingestItem is one queue entry: either a telemetry op or a flush barrier
// (barrier != nil), never both.
type ingestItem struct {
	op      walOp
	barrier chan struct{}
}

// defaultIngestBatch caps ops applied per mutex acquisition / WAL fsync.
const defaultIngestBatch = 256

// startApplier arms the shard's ingest queue and starts its applier.
func (sh *shard) startApplier(queue, batch int) {
	sh.ingestQ = make(chan ingestItem, queue)
	sh.applierDone = make(chan struct{})
	sh.batchMax = batch
	go sh.applier()
}

// enqueue attempts a non-blocking put; false means the queue is at its
// high-water mark and the caller must refuse the request with 429.
func (sh *shard) enqueue(op walOp) bool {
	select {
	case sh.ingestQ <- ingestItem{op: op}:
		return true
	default:
		return false
	}
}

// flush enqueues a barrier and blocks until the applier has applied and
// fsynced every op acknowledged before it. No-op in sync mode. Must not be
// called after Shutdown has closed the queue (request paths cannot get
// here then — the drain gate refuses them before the handler runs).
func (sh *shard) flush() {
	if sh.ingestQ == nil {
		return
	}
	done := make(chan struct{})
	sh.ingestQ <- ingestItem{barrier: done}
	<-done
}

// Flush blocks until every telemetry op acknowledged before the call is
// applied and durable on every shard — the explicit cluster-wide barrier
// (parity tests use it before comparing bodies). No-op in sync mode; must
// not be called concurrently with or after Shutdown.
func (s *Server) Flush() {
	for _, sh := range s.shards {
		sh.flush()
	}
}

// applier is the shard's ingest loop: block for one item, then opportunistically
// collect up to batchMax-1 more without blocking, apply the batch under one
// mutex acquisition with one fsync, and signal any barrier that ended the
// batch. Exits when the queue is closed and fully drained (Shutdown), so a
// graceful drain never drops an acknowledged op.
func (sh *shard) applier() {
	defer close(sh.applierDone)
	batch := make([]walOp, 0, sh.batchMax)
	for {
		item, ok := <-sh.ingestQ
		if !ok {
			return
		}
		batch = batch[:0]
		var barrier chan struct{}
		closed := false
		if item.barrier != nil {
			barrier = item.barrier
		} else {
			batch = append(batch, item.op)
		}
		for barrier == nil && len(batch) < sh.batchMax {
			select {
			case next, more := <-sh.ingestQ:
				if !more {
					closed = true
				} else if next.barrier != nil {
					barrier = next.barrier
				} else {
					batch = append(batch, next.op)
					continue
				}
			default:
			}
			break
		}
		sh.applyBatch(batch)
		if barrier != nil {
			close(barrier)
		}
		if closed {
			// ok=false is only observable once the closed queue is empty,
			// so everything acknowledged has been applied and fsynced.
			return
		}
	}
}

// applyBatch applies queued ops under one mutex acquisition, then a single
// fsync covering every append. A bare barrier (empty batch) still fsyncs,
// upgrading previously applied-but-unsynced ops to durable before the barrier
// releases. Nobody is waiting on an ack here, so a persist error, or a sample
// for a job the shard no longer holds, can only be counted.
func (sh *shard) applyBatch(ops []walOp) {
	met := sh.srv.met
	now := sh.srv.opts.Clock()
	sh.mu.Lock()
	events, failed, dropped := sh.applyOpsLocked(ops, now, nil)
	if sh.store != nil {
		if err := sh.store.wal.Sync(); err != nil {
			failed++
		}
	}
	sh.mu.Unlock()
	sh.srv.record(events)
	met.ingestErrors.Add(float64(failed))
	met.ingestDropped.Add(float64(dropped))
	if len(ops) > 0 {
		met.ingestApplied.Add(float64(len(ops)))
		met.ingestBatch.Observe(float64(len(ops)))
	}
}

// stopAppliers closes every ingest queue and waits for the appliers to
// drain them (apply + fsync every acknowledged op). Called from Shutdown
// after the in-flight drain: no producer can exist anymore. Idempotent.
func (s *Server) stopAppliers(ctx context.Context) error {
	if !s.appliersStopped.CompareAndSwap(false, true) {
		return nil
	}
	for _, sh := range s.shards {
		if sh.ingestQ != nil {
			close(sh.ingestQ)
		}
	}
	for _, sh := range s.shards {
		if sh.applierDone == nil {
			continue
		}
		select {
		case <-sh.applierDone:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
