package lucidd

import "sync"

// Telemetry ingest. A POST /metrics or POST /agents handler validates, routes
// and builds the walOp, then appends it to the owning shard's ack-ordered
// queue and answers 202 Accepted — or 429 + Retry-After when the queue already
// holds Options.IngestQueue ops (backpressure), so an overloaded shard sheds
// telemetry load explicitly instead of queueing unboundedly.
//
// Only a holder of the shard mutex takes ops off the queue, always the oldest
// first, and applies them through applyOpsLocked in the same hold. Two kinds of
// holder do:
//
//   - the shard's drainer — a goroutine started by an op enqueued while none
//     is running — applies at most drainBatch ops per hold, commits each hold
//     without must, and exits once its take leaves the queue empty;
//   - a flush — a list read (/jobs, /schedule, /agents), /chaos, Flush and
//     Shutdown — takes everything queued on the caller's own goroutine and
//     commits with must.
//
// Ordering and visibility contract:
//
//   - Per-shard FIFO: ops are applied in exact ack order, so a job's samples
//     fold into its running-mean profile in the same order the server
//     acknowledged them — bit-identical to applying each op on its own.
//   - Flushes: read paths, /chaos mutations and Shutdown flush the shards they
//     cover first, so every acknowledged sample is observable there and no
//     chaos op can overtake telemetry it arrived after. A flush returns with
//     the ops applied and fsynced; the counters and trace events of a drain
//     the drainer ran beside it may land a moment later.
//   - Durability: an acked-but-still-queued op is in memory only; an applied
//     op is in the WAL file (a killed process loses nothing it applied) and
//     reaches stable storage with the next fsync on its shard — telemetry
//     the agents re-send anyway; an op a flush has covered is on disk.
//     Recovery replays exactly what the files hold per shard.
//
// The drainer asks the disk only when WAL.SyncEvery records are unsynced, and
// either way the fsync runs after the shard mutex is released (shard.commit,
// store.go) — a submission on the same shard waits neither for the lock nor
// behind fsyncs nobody asked for.
//
// The throughput win on the request path is an O(1) append instead of
// lock + apply + WAL append, and on the apply path one stale sweep and one
// write() per drain, and one fsync per flush or per SyncEvery records, instead
// of one each per heartbeat.

// drainBatch caps the ops the drainer applies per hold of the shard mutex: it
// bounds how long a submission or a read waits behind the drainer for the lock.
const drainBatch = 256

// enqueue appends op to the shard's queue; false means the queue is at its
// high-water mark and the caller must refuse the request with 429. With no
// drainer running, the op starts one. A drainer runs until its own take
// leaves the queue empty, and both sides look under qmu, so an acknowledged op
// is always either taken or ahead of a drainer's next take. Nothing waits for
// a drainer: a flush leaves it nothing to apply.
func (sh *shard) enqueue(op walOp) bool {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	if len(sh.queue) >= sh.srv.opts.IngestQueue {
		return false
	}
	sh.queue = append(sh.queue, op)
	if !sh.draining {
		sh.draining = true
		go func() {
			for sh.drain(drainBatch) > 0 {
			}
		}()
	}
	return true
}

// takeLocked removes the oldest ops from the queue — at most max (the
// drainer), all of them when max is 0 (a flush) — and reports how many it
// left. The shard mutex is held: that is what keeps the ops of two takes from
// being applied out of order. A whole take swaps the queue with the buffer the
// previous whole take returned, which its taker applied before releasing the
// mutex, so the queue does not regrow from nil on every drain.
func (sh *shard) takeLocked(max int) (ops []walOp, left int) {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	ops = sh.queue
	if max > 0 && len(ops) > max {
		ops, sh.queue = ops[:max], ops[max:]
	} else {
		sh.queue, sh.spare = sh.spare[:0], ops
		if max > 0 {
			sh.draining = false // the drainer's last take: the next enqueue starts another
		}
	}
	return ops, len(sh.queue)
}

// drain applies up to max queued ops (all of them when max is 0: a flush) in
// one hold of the shard mutex, commits them after the unlock, and reports how
// many ops it left queued. A flush commits with must: everything the shard has
// appended so far, these ops and any earlier unsynced tail alike, is fsynced
// before it returns. The drainer's commit touches the disk only when
// WAL.SyncEvery records are unsynced: sixteen drainers share one disk with the
// submissions, and every fsync nobody asked for is one a 201 queues behind.
// Nobody is waiting on an ack here, so a persist error, or a sample for a job
// the shard no longer holds, can only be counted.
func (sh *shard) drain(max int) (left int) {
	met := sh.srv.met
	now := sh.srv.opts.clock()
	sh.mu.Lock()
	ops, left := sh.takeLocked(max)
	events, failed, dropped := sh.applyOpsLocked(ops, now, nil)
	seq := sh.commitPointLocked()
	sh.mu.Unlock()
	if err := sh.commit(seq, max == 0); err != nil {
		failed++
	}
	sh.srv.record(events)
	met.ingestErrors.Add(float64(failed))
	met.ingestDropped.Add(float64(dropped))
	if len(ops) > 0 { // applied last: whoever waits on it sees this drain's other counters
		met.ingestBatch.Observe(float64(len(ops)))
		met.ingestApplied.Add(float64(len(ops)))
	}
	return left
}

// flush applies and fsyncs everything queued on the shard.
func (sh *shard) flush() { sh.drain(0) }

// flushAll flushes every given shard, one goroutine per shard when there are
// several, so one wedged shard delays the caller but not its siblings' fsyncs —
// one per shard with anything unsynced, now that nobody fsyncs unasked. A
// settled shard is skipped: its flush would apply and fsync nothing, and an
// idle in-memory daemon's global read starts no goroutines.
func flushAll(shards []*shard) {
	if len(shards) == 1 {
		shards[0].flush()
		return
	}
	var wg sync.WaitGroup
	for _, sh := range shards {
		if sh.settled() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.drain(0)
		}()
	}
	wg.Wait()
}

// settled reports, without waiting, that every op acknowledged on sh is
// applied and every record it appended is durable: nobody holds the shard
// mutex (so no take is being applied), the queue is empty and the WAL has
// nothing unsynced.
func (sh *shard) settled() bool {
	if !sh.mu.TryLock() {
		return false
	}
	defer sh.mu.Unlock()
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	return len(sh.queue) == 0 && (sh.wal == nil || sh.wal.Unsynced() == 0)
}

// Flush blocks until every telemetry op acknowledged before the call is
// applied and durable on every shard — the explicit cluster-wide barrier
// (parity tests use it before comparing bodies).
func (s *Server) Flush() { flushAll(s.shards) }
