package lucidd

import "context"

// Async telemetry ingest. A POST /metrics or POST /agents handler always
// does the same work: validate, route, build the walOp. With
// Options.IngestQueue == 0 it then applies the op inline (shard.applyOne) and
// answers with the result; with IngestQueue > 0 it enqueues the op on the
// owning shard's bounded queue instead, and a single applier goroutine per
// shard drains the queue in batches through the same applyOpsLocked — one
// mutex acquisition, one stale sweep and one commit point per batch. The
// request is acknowledged with 202 Accepted at enqueue time — or refused with
// 429 + Retry-After when the queue is full (backpressure), so an overloaded
// shard sheds telemetry load explicitly instead of queueing unboundedly.
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
//   - Durability: an acked-but-still-queued op is in memory only; an applied
//     op is in the WAL file (a killed process loses nothing it applied) and
//     reaches stable storage with the next fsync on its shard — same class
//     as sync mode's unsynced WAL tail, telemetry the agents re-send anyway;
//     an op a barrier has flushed is on disk. Recovery replays exactly what
//     the files hold per shard.
//
// The applier asks the disk only when somebody is waiting for it: a batch
// that a barrier ended (or the drain at Shutdown) commits with must, any other
// batch fsyncs only once WAL.SyncEvery records are unsynced, and either way
// the fsync runs after the shard mutex is released (shard.commit, store.go) —
// a submission on the same shard waits neither for the lock nor behind fsyncs
// nobody asked for.
//
// The throughput win on the request path is O(1) enqueue instead of
// lock + apply + WAL append, and on the apply path one stale sweep per batch
// and one fsync per barrier or per SyncEvery records instead of per heartbeat.

// ingestItem is one queue entry: either a telemetry op or a flush barrier
// (barrier != nil), never both.
type ingestItem struct {
	op      walOp
	barrier chan struct{}
}

// defaultIngestBatch caps ops applied per mutex acquisition / commit point.
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

// barrier enqueues a flush barrier and returns the channel the applier closes
// once it has applied and fsynced every op acknowledged before it (0 unsynced
// records on the shard, unless somebody appended meanwhile); nil in sync mode,
// where there is no queue to flush. Must not be called after Shutdown has
// closed the queue (request paths cannot get here then — the drain gate
// refuses them before the handler runs).
func (sh *shard) barrier() <-chan struct{} {
	if sh.ingestQ == nil {
		return nil
	}
	done := make(chan struct{})
	sh.ingestQ <- ingestItem{barrier: done}
	return done
}

// flush is one barrier, waited for. No-op in sync mode.
func (sh *shard) flush() {
	if done := sh.barrier(); done != nil {
		<-done
	}
}

// flushAll puts a barrier on every shard before waiting for any, so the
// appliers' fsyncs — one per shard with anything unsynced, now that nobody
// fsyncs unasked — overlap instead of queueing one behind another.
func flushAll(shards []*shard) {
	waits := make([]<-chan struct{}, 0, len(shards))
	for _, sh := range shards {
		if done := sh.barrier(); done != nil {
			waits = append(waits, done)
		}
	}
	for _, done := range waits {
		<-done
	}
}

// Flush blocks until every telemetry op acknowledged before the call is
// applied and durable on every shard — the explicit cluster-wide barrier
// (parity tests use it before comparing bodies). No-op in sync mode; must
// not be called concurrently with or after Shutdown.
func (s *Server) Flush() { flushAll(s.shards) }

// applier is the shard's ingest loop: block for one item, then opportunistically
// collect up to batchMax-1 more without blocking, apply the batch under one
// mutex acquisition, commit it, and signal any barrier that ended the batch.
// Exits when the queue is closed and fully drained (Shutdown); the last batch —
// possibly empty — commits with must, so a graceful drain leaves every
// acknowledged op applied and fsynced.
func (sh *shard) applier() {
	defer close(sh.applierDone)
	batch := make([]walOp, 0, sh.batchMax)
	for closed := false; !closed; {
		batch = batch[:0]
		var barrier chan struct{}
		item, ok := <-sh.ingestQ
		for {
			switch {
			case !ok: // only observable once the closed queue is empty
				closed = true
			case item.barrier != nil:
				barrier = item.barrier
			default:
				batch = append(batch, item.op)
			}
			if closed || barrier != nil || len(batch) >= sh.batchMax {
				break
			}
			select {
			case item, ok = <-sh.ingestQ:
				continue
			default:
			}
			break
		}
		sh.applyBatch(batch, barrier != nil || closed)
		if barrier != nil {
			close(barrier)
		}
	}
}

// applyBatch applies queued ops under one mutex acquisition and commits them
// after the unlock. must says somebody is waiting for the disk — a flush
// barrier ended the batch, or this is the drain at Shutdown — and then the
// commit fsyncs everything the shard has appended so far, this batch and any
// earlier unsynced tail alike, before the barrier releases. Otherwise the
// commit touches the disk only when WAL.SyncEvery records are unsynced: sixteen
// appliers share one disk with the submissions, and every fsync nobody asked
// for is one a 201 queues behind. Nobody is waiting on an ack here, so a
// persist error, or a sample for a job the shard no longer holds, can only be
// counted.
func (sh *shard) applyBatch(ops []walOp, must bool) {
	met := sh.srv.met
	now := sh.srv.opts.Clock()
	sh.mu.Lock()
	events, failed, dropped := sh.applyOpsLocked(ops, now, nil)
	seq, owed := sh.commitPointLocked()
	sh.mu.Unlock()
	if err := sh.commit(seq, must || owed); err != nil {
		failed++
	}
	sh.srv.record(events)
	met.ingestErrors.Add(float64(failed))
	met.ingestDropped.Add(float64(dropped))
	if len(ops) > 0 {
		met.ingestApplied.Add(float64(len(ops)))
		met.ingestBatch.Observe(float64(len(ops)))
	}
}

// stopAppliers closes every ingest queue and waits for the appliers to
// drain them (apply every acknowledged op, then one last must-commit). Called
// from Shutdown after the in-flight drain: no producer can exist anymore.
// Idempotent.
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
