package lucidd

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/snap"
	"repro/internal/workload"
)

// shard is one tenant-scoped state machine: its own job table, agent table,
// duration-estimator clone, mutex and (when durability is on) its own WAL and
// snapshot under <state-dir>/shard-<idx>/. Every mutating request touches
// exactly one shard, so the paper's 15–20 VCs never serialize on a shared
// lock: a heartbeat for Venus VC "vc3" and a sample for Saturn VC "vc17"
// proceed independently. The routing front door (Server.shardFor) maps a VC
// name onto a shard by stable hash; with Shards >= the number of VCs each VC
// effectively owns a shard, and Shards=1 reproduces the old single-mutex
// server exactly.
//
// Lock discipline: a request path may hold AT MOST ONE shard mutex at a time.
// Fan-out reads (/jobs, /schedule, /agents without ?vc=) visit shards
// sequentially — lock, copy, unlock, next — so a stalled shard delays only
// requests that need it, never a sibling's mutating path. The global
// /schedule read does so holding the schedule cache's mutex: lock order is
// that mutex first, then at most one shard mutex at a time, and no shard path
// ever takes the cache mutex. The population
// atomics (nJobs, nProfiled, nAgents) exist so read-mostly paths
// (GET /metrics, /statusz counts) can observe the shard without its lock.
type shard struct {
	idx int
	srv *Server

	mu     sync.Mutex
	jobs   map[int]*jobState
	agents map[string]*agentState
	// order is the shard's incremental priority index: every job, kept in
	// the order of its core.Key (jobState.key) at all times. Mutators reposition
	// the touched job with two binary searches instead of /schedule
	// re-sorting the whole merged queue per request; cluster-wide reads
	// K-way-merge these pre-sorted views.
	order []*jobState
	// aorder is the same idea for agents: every live agent, sorted by the
	// full listing key (Name, VC, Node), each carrying a pre-marshaled JSON
	// fragment refreshed on mutation. GET /agents becomes a filter/merge of
	// pre-sorted, pre-serialized views instead of an O(n log n) sort plus an
	// O(n) struct marshal per request — the difference between a listing
	// that costs microseconds and one that dominates the benchmark at
	// 10k+ agents per shard.
	aorder []*agentState
	// lruHead/lruTail anchor the intrusive heartbeat-order list (oldest
	// first): LastSeen stamps a monotone clock, so stale agents are always
	// a prefix and the stale sweep is O(evicted), not O(shard-agents) —
	// cheap enough to run on every heartbeat and every read at any fleet
	// size.
	lruHead, lruTail *agentState
	// touched lists the jobs whose /schedule entry changed (refreshLocked,
	// dropJob) since the global /schedule cache last visited; touchedAll says
	// to take the shard whole: a snapshot replaced it, or the list grew past
	// half its jobs, which also bounds it when no global read comes.
	touched    []int
	touchedAll bool
	// listBufs is the shard's free list of listing response buffers — see
	// getListBufLocked for why this beats a sync.Pool here.
	listBufs [][]byte
	// est is this shard's clone of the shared workload estimator: same
	// fitted model, private per-job cache, so refreshLocked never crosses
	// shard boundaries. Estimates are a pure function of the job, so clones
	// agree bit-for-bit — the shard-parity guarantee.
	est *core.WorkloadEstimator
	// store is this shard's durability layer (nil when StateDir is empty, and
	// again after Shutdown closed it). Read and written with mu held.
	store *store
	// wal is the shard's log: set at boot when durability is on and never
	// cleared. Appends, Records/Bytes and Reset happen with mu held — WAL order
	// is the order of the state mutations the records describe — while the
	// fsync side (commit) and the atomics behind Unsynced are used without it.
	wal *snap.WAL
	// record is logOpLocked's encode buffer, and logged holds the indexes of
	// the current hold's ops whose records it staged since the last snapshot —
	// the ops a failed write fails (mu held).
	record []byte
	logged []int
	// ledger is the seq of the shard's last job record, the one kind acked as
	// durable: a list read waits for it to be durable (mu held).
	ledger int64

	// Telemetry ingest (see ingest.go).
	// queue holds the acknowledged, not yet applied telemetry ops in ack
	// order, and draining says a drainer goroutine is running, both under
	// qmu. A holder of mu may take qmu, never the reverse, so enqueue and the
	// depth gauge never wait for mu. spare is the buffer the last whole take
	// swapped out (mu held).
	qmu      sync.Mutex
	queue    []walOp
	draining bool
	spare    []walOp

	// Population counters published outside mu for lock-free observation:
	// GET /metrics and the /statusz counts read these without touching the
	// shard mutex, so a slow or wedged shard can still be observed.
	nJobs     atomic.Int64
	nProfiled atomic.Int64
	nAgents   atomic.Int64
}

func newShard(idx int, srv *Server) *shard {
	return &shard{
		idx:    idx,
		srv:    srv,
		jobs:   map[int]*jobState{},
		agents: map[string]*agentState{},
		est:    training.est.Clone(),
	}
}

// shardFor routes a VC name to its shard: 32-bit FNV-1a over the name, mod
// the shard count, computed inline (hash/fnv would allocate a hasher and a
// copy of the name per request). The hash is stable across boots — required
// because each shard recovers its own WAL/snapshot, so a VC must land on the
// same shard every run (NewServerWith refuses a state dir created with a
// different count).
func (s *Server) shardFor(vc string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(vc); i++ {
		h ^= uint32(vc[i])
		h *= 16777619
	}
	return s.shards[int(h%uint32(len(s.shards)))]
}

// shardOfJob resolves the shard holding a job ID via the front door's
// routing index (maintained on submit, replay and snapshot load).
func (s *Server) shardOfJob(id int) (*shard, bool) {
	v, ok := s.jobShard.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*shard), true
}

// bumpNextID raises the global ID allocator to at least id (CAS max) —
// recovery replays per-shard WALs in shard order, and the allocator must end
// past every ID any shard ever acknowledged.
func (s *Server) bumpNextID(id int) {
	for {
		cur := s.nextID.Load()
		if int64(id) <= cur || s.nextID.CompareAndSwap(cur, int64(id)) {
			return
		}
	}
}

// opResult is what one op did, for the callers that answer a request with it:
// POST /jobs and /chaos. Telemetry ops fill in only err.
type opResult struct {
	job   jobState   // the job after a job / abort-job / fail-job op
	agent agentState // the agent as it stood when evicted
	ok    bool       // false: the op named a job or agent this shard does not hold — nothing changed, nothing was logged
	err   error      // the WAL append or the commit failed: a job op is rolled back, any other op stays applied in memory
}

// sweepOps is the batch the agent read paths apply before listing.
var sweepOps = []walOp{{Op: "sweep"}}

// sweepLocked evicts the shard's stale agents ahead of a listing. The events
// are recorded under the lock; the recorder is internally synchronized.
func (sh *shard) sweepLocked(now time.Time) {
	events, _, _ := sh.applyOpsLocked(sweepOps, now, nil)
	sh.srv.record(events)
}

// applyOpsLocked is THE mutation path: the only code that writes sh.jobs,
// sh.agents, the two sorted indexes and the heartbeat-order list, appends to
// the WAL, and decides which decision-trace events a mutation produces. Its
// callers differ only in where the ops come from and what they do with the
// outcome:
//
//	POST /jobs (inline)    ─┐
//	queue drain | flush    ─┤                       ┌─ state (tables, indexes, LRU)
//	/chaos evict | fail    ─┼─→ applyOpsLocked ─────┼─ WAL records (one write() per hold; the fsync is the caller's commit)
//	read-path stale sweep  ─┤                       └─ events → caller records them
//	WAL replay (store nil) ─┘
//
// Every op is applied first and logged second: if the append lands on the
// compaction threshold, the snapshot that replaces the WAL must already
// contain the op's effect. A caller whose ops may have been logged ends its
// hold with commitPointLocked and calls commit after the unlock. Replay runs
// before sh.store is set, so nothing is re-logged, and drops the events. res is
// nil when the caller wants no per-op outcome, else len(ops) long; failed
// counts the ops whose append failed and dropped the samples that named a job
// the shard does not hold, which is all a drain can use (a queued op's client
// was told 202 long ago). now is the staleness reference only — a heartbeat's
// LastSeen comes from its op — and replay passes the zero time, against which
// nothing is stale: recovery never evicts, the first live request does.
func (sh *shard) applyOpsLocked(ops []walOp, now time.Time, res []opResult) (events []dtrace.Event, failed, dropped int) {
	evict := func(a *agentState, reason string) {
		sh.lruUnlinkLocked(a)
		sh.aorder = removeSorted(sh.aorder, a, (*agentState).compare)
		delete(sh.agents, a.Name)
		events = append(events, dtrace.Event{Action: dtrace.ActNodeFail,
			Reason: reason, Node: a.Node + 1})
	}
	dropJob := func(js *jobState) {
		sh.order = removeSorted(sh.order, js, (*jobState).compare)
		delete(sh.jobs, js.ID)
		sh.touchLocked(js.ID)
		sh.srv.jobShard.Delete(js.ID)
		if js.Samples >= minSamples {
			sh.nProfiled.Add(-1)
		}
	}
	swept := false
	for i := range ops {
		op := &ops[i]
		var r opResult
		switch op.Op {
		case "job":
			js := &jobState{ID: op.ID, Name: op.Name, User: op.User, VC: op.VC,
				GPUs: op.GPUs, AMP: op.AMP}
			sh.jobs[js.ID] = js
			sh.srv.jobShard.Store(js.ID, sh)
			sh.srv.bumpNextID(js.ID)
			sh.refreshLocked(js)
			sh.order = insertSorted(sh.order, js, (*jobState).compare)
			if r.err = sh.logOpLocked(ops, i); r.err != nil {
				// The client gets an error, so the job must not exist. The
				// allocated ID is not reused — a gap is harmless, a reused
				// ID is not.
				dropJob(js)
			} else {
				events = append(events, dtrace.Event{Job: js.ID, Action: dtrace.ActRelease,
					Reason: "registered", VC: js.VC, GPUs: js.GPUs})
			}
			r.job, r.ok = *js, true
		case "abort-job":
			// The submission's commit failed after its hold ended (applyOne):
			// withdraw it. Never logged — the client was told 500, and a replay
			// that finds the "job" record after all only resurrects a job
			// nobody was promised.
			if js, ok := sh.jobs[op.ID]; ok {
				dropJob(js)
				r.job, r.ok = *js, true
			}
		case "metrics":
			js, ok := sh.jobs[op.ID]
			if !ok {
				dropped++ // evicted between ack and apply, or dropped by a snapshot before replay
				break
			}
			// Fold one NVIDIA-SMI-style sample into the running mean, by
			// increments: equal samples keep it exactly the sample, and
			// non-negative ones within their range. Remove before mutating:
			// the index is searched by the key the job was inserted under.
			sh.order = removeSorted(sh.order, js, (*jobState).compare)
			n := float64(js.Samples + 1)
			js.Profile.GPUUtil += (op.GPUUtil - js.Profile.GPUUtil) / n
			js.Profile.GPUMemMB += (op.GPUMemMB - js.Profile.GPUMemMB) / n
			js.Profile.GPUMemUtil += (op.GPUMemUtil - js.Profile.GPUMemUtil) / n
			js.Samples++
			sh.refreshLocked(js)
			sh.order = insertSorted(sh.order, js, (*jobState).compare)
			// Samples never ask for an fsync: losing the unsynced tail in a
			// power cut only costs telemetry the agents re-send anyway.
			r.err = sh.logOpLocked(ops, i)
			if js.Samples == minSamples {
				// The job just crossed the profiling threshold: from here on
				// the analyzer scores it from real metrics, not the Jumbo prior.
				sh.nProfiled.Add(1)
				events = append(events, dtrace.Event{Job: js.ID,
					Action: dtrace.ActProfileStop, Reason: "min-samples-reached",
					VC: js.VC, GPUs: js.GPUs, Score: js.Profile.GPUUtil})
			}
		case "agent", "sweep":
			// Evict agents whose last heartbeat predates the staleness
			// window, each a presumed node failure. The heartbeat-order list
			// keeps the stale set a poppable prefix, so the sweep is
			// O(evicted) at any fleet size — and strictly shard-local
			// (TestSlowShardDoesNotBlockSibling). Once per batch is plenty.
			// Never logged: it is a pure function of the logged heartbeat
			// stamps and the clock.
			if !swept {
				swept = true
				for a := sh.lruHead; a != nil && now.Sub(a.LastSeen) > sh.srv.opts.AgentStaleAfter; a = sh.lruHead {
					evict(a, "heartbeat-stale")
				}
			}
			if op.Op == "sweep" {
				break
			}
			seen := time.Unix(0, op.UnixNano)
			a, known := sh.agents[op.Name]
			switch {
			case !known:
				a = &agentState{Name: op.Name, VC: op.VC, Node: op.Node, LastSeen: seen}
				sh.agents[a.Name] = a
				sh.aorder = insertSorted(sh.aorder, a, (*agentState).compare)
				events = append(events, dtrace.Event{Action: dtrace.ActNodeRepair,
					Reason: "agent-online", Node: a.Node + 1})
			case a.VC != op.VC || a.Node != op.Node:
				// The listing key changed: reposition under the old key
				// first, the same remove-before-mutate discipline as above.
				sh.aorder = removeSorted(sh.aorder, a, (*agentState).compare)
				a.VC, a.Node, a.LastSeen = op.VC, op.Node, seen
				sh.aorder = insertSorted(sh.aorder, a, (*agentState).compare)
				sh.lruUnlinkLocked(a)
			default:
				a.LastSeen = seen
				sh.lruUnlinkLocked(a)
			}
			a.refreshFrag()
			sh.lruPushBackLocked(a)
			r.err = sh.logOpLocked(ops, i)
		case "evict-agent":
			if a, ok := sh.agents[op.Name]; ok {
				r.agent, r.ok = *a, true
				evict(a, "chaos-evict")
				r.err = sh.logOpLocked(ops, i)
			}
		case "fail-job":
			js, ok := sh.jobs[op.ID]
			if !ok {
				break
			}
			// The in-memory profile is lost and the job re-enters the system
			// unprofiled, scored by the conservative Jumbo prior until fresh
			// samples arrive — the simulator's requeue-through-profiler path.
			sh.order = removeSorted(sh.order, js, (*jobState).compare)
			if js.Samples >= minSamples {
				sh.nProfiled.Add(-1)
			}
			js.Restarts++
			js.Samples = 0
			js.Profile = profile{}
			sh.refreshLocked(js)
			sh.order = insertSorted(sh.order, js, (*jobState).compare)
			r.err = sh.logOpLocked(ops, i)
			events = append(events, dtrace.Event{Job: js.ID, Action: dtrace.ActRequeue,
				Reason: "chaos-kill", VC: js.VC, GPUs: js.GPUs})
			r.job, r.ok = *js, true
		}
		if r.err != nil {
			failed++
		}
		if res != nil {
			res[i] = r
		}
	}
	// The hold's records reach the file in one write(). If it fails, so does
	// every op the hold logged since the last snapshot, and a job among them is
	// withdrawn before the unlock: its client is told 500, nobody may list it.
	if sh.store != nil {
		if err := sh.wal.Write(); err != nil {
			for _, i := range sh.logged {
				failed++
				if res != nil {
					res[i].err = err
				}
				if id := ops[i].ID; ops[i].Op == "job" {
					if js, ok := sh.jobs[id]; ok {
						dropJob(js)
					}
					events = slices.DeleteFunc(events, func(e dtrace.Event) bool { return e.Job == id })
				}
			}
		}
		sh.logged = sh.logged[:0]
	}
	sh.nJobs.Store(int64(len(sh.jobs)))
	sh.nAgents.Store(int64(len(sh.agents)))
	return events, failed, dropped
}

// applyOne is the inline path of POST /jobs and /chaos: one op under
// the shard lock, the commit after the unlock, then its events recorded (the
// recorder is internally synchronized). A submission commits with must: the
// handler answers 201 only once its record is fsynced.
//
// Submissions and /chaos ops are applied here, on their handler's goroutine,
// while telemetry is queued — by measurement. Handed to one applier goroutine
// per shard instead (2-core Xeon, go1.24.0), a submission waited for a CPU
// behind the other shards' busy appliers: the traced ctl_ingest
// post_jobs_p50_ms went 0.15–0.19 → 0.54–0.59 ms, and the submission p50
// behind 511 queued heartbeats (BenchmarkSubmitAfterTelemetry) 200 → 712 µs.
func (sh *shard) applyOne(op walOp) opResult {
	var res [1]opResult
	now := sh.srv.opts.clock()
	sh.mu.Lock()
	events, _, _ := sh.applyOpsLocked([]walOp{op}, now, res[:])
	seq := sh.commitPointLocked()
	if op.Op == "job" {
		sh.ledger = seq
	}
	sh.mu.Unlock()
	if err := sh.commit(seq, op.Op == "job"); err != nil && res[0].err == nil {
		res[0].err = err
		if op.Op == "job" {
			// Answered 500, so it must not be listed afterwards. A concurrent
			// list read waits for this fsync through the ledger and counts its
			// failure, but may list the job before this withdrawal; ROADMAP
			// item 1(b2) replaces the rollback with a shard that turns
			// read-only when it cannot persist.
			sh.applyOne(walOp{Op: "abort-job", ID: op.ID})
			events = nil // "registered" was never true
		}
	}
	sh.srv.record(events)
	return res[0]
}

// record appends events to the decision-trace flight recorder.
func (s *Server) record(events []dtrace.Event) {
	for i := range events {
		s.rec.Record(events[i])
	}
}

// lruPushBackLocked appends a (not currently linked) agent at the
// freshest end of the heartbeat-order list.
func (sh *shard) lruPushBackLocked(a *agentState) {
	a.lruPrev, a.lruNext = sh.lruTail, nil
	if sh.lruTail != nil {
		sh.lruTail.lruNext = a
	} else {
		sh.lruHead = a
	}
	sh.lruTail = a
}

// lruUnlinkLocked removes a linked agent from the heartbeat-order list.
func (sh *shard) lruUnlinkLocked(a *agentState) {
	if a.lruPrev != nil {
		a.lruPrev.lruNext = a.lruNext
	} else {
		sh.lruHead = a.lruNext
	}
	if a.lruNext != nil {
		a.lruNext.lruPrev = a.lruPrev
	} else {
		sh.lruTail = a.lruPrev
	}
	a.lruPrev, a.lruNext = nil, nil
}

// insertSorted and removeSorted maintain a slice ordered by a strict total
// order — the one index implementation behind both the job priority order and
// the agent listing order. Mutators reposition the touched element with two
// binary searches instead of a reader re-sorting per request. An element is
// found by its key and confirmed by identity, so callers must remove BEFORE
// mutating anything compare reads; removing an absent element is a no-op.
func insertSorted[T any](s []T, v T, compare func(a, b T) int) []T {
	i, _ := slices.BinarySearchFunc(s, v, compare)
	return slices.Insert(s, i, v)
}

func removeSorted[T comparable](s []T, v T, compare func(a, b T) int) []T {
	if i, ok := slices.BinarySearchFunc(s, v, compare); ok && s[i] == v {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// mergeSorted K-way merges per-shard views, each already sorted by compare,
// into one globally ordered slice — /jobs, a global /schedule rebuild and the
// cluster-wide /agents listing all end here, so none sorts the merged list per
// request. compare must be a total order (every comparator tie-breaks down to
// a cluster-unique key), which makes the merge deterministic at any shard
// count. The merge is a loser tree: a pop replays one leaf-to-root path,
// log2(K) comparator calls where a scan over the K heads makes K-1.
func mergeSorted[T any](views [][]T, compare func(a, b T) int) []T {
	total := 0
	only := []T{} // non-nil: an empty merge must still encode as [], not null
	for _, v := range views {
		if total += len(v); len(v) > 0 {
			only = v
		}
	}
	if len(only) == total {
		return only // at most one shard has anything: its view is the answer
	}
	k := len(views)
	heads := make([]int, k)
	// loser[t] is the view that lost the match at internal node t (node t's
	// children are 2t and 2t+1, view i is leaf k+i); loser[0] is the overall
	// winner. -1 is the build-time bye: it beats every view, so replaying the
	// views in one by one leaves each at the node where it first loses.
	loser := make([]int, k)
	for t := range loser {
		loser[t] = -1
	}
	replay := func(w int) {
		for t := (w + k) / 2; t > 0; t /= 2 {
			// The view parked at t changes places with the climber when it
			// wins their match: a bye wins any match (and, climbing, is never
			// stopped), an exhausted view loses any, else the head that
			// sorts first wins.
			p := loser[t]
			if w >= 0 && (p < 0 || (heads[p] < len(views[p]) &&
				(heads[w] == len(views[w]) || compare(views[p][heads[p]], views[w][heads[w]]) < 0))) {
				loser[t], w = w, p
			}
		}
		loser[0] = w
	}
	for i := k - 1; i >= 0; i-- {
		replay(i)
	}
	out := make([]T, 0, total)
	for len(out) < total {
		w := loser[0]
		out = append(out, views[w][heads[w]])
		heads[w]++
		replay(w)
	}
	return out
}

// copyJobFrags snapshots the shard's priority order (optionally scoped to one
// VC) as fragments, already sorted — the unit step of every job list read and
// of a global /schedule rebuild. The fragments are retained, not copied
// (jobState.frag states the ownership rule).
func (sh *shard) copyJobFrags(vc string) ([]*jobFrag, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.copyJobFragsLocked(vc)
}

func (sh *shard) copyJobFragsLocked(vc string) ([]*jobFrag, error) {
	out := make([]*jobFrag, 0, len(sh.order))
	for _, js := range sh.order {
		if vc != "" && js.VC != vc {
			continue
		}
		f, err := js.listFrag()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// listFrag is the job's fragment, shard mutex held: the one place a job
// becomes list JSON. A job whose fragment a mutation invalidated is re-encoded
// here, lazily, because a job changes on one write in five and encoding on
// every mutation taxed ingest for reads that may never come. encoding/json
// refuses non-finite floats; a profile mean that is not finite surfaces as the
// error.
func (js *jobState) listFrag() (*jobFrag, error) {
	if js.frag == nil {
		b, err := json.Marshal(js)
		if err != nil {
			return nil, fmt.Errorf("encode job %d: %w", js.ID, err)
		}
		js.frag = &jobFrag{json: b, key: js.key, vc: js.VC, gpus: js.GPUs}
	}
	return js.frag, nil
}

// agentKey is the listing sort key: full (Name, VC, Node), because two shards
// can hold same-named agents (different VCs hash apart) and Name alone would
// leave their relative order to shard iteration — the fan-out nondeterminism
// class PR 1 fixed for jobs. compare is THE listing comparator: the per-shard
// index, the fan-out merge and the tie-break tests all order by it.
type agentKey struct {
	name, vc string
	node     int
}

func (k agentKey) compare(o agentKey) int {
	if c := strings.Compare(k.name, o.name); c != 0 {
		return c
	}
	if c := strings.Compare(k.vc, o.vc); c != 0 {
		return c
	}
	return cmp.Compare(k.node, o.node)
}

func (a *agentState) compare(o *agentState) int {
	return agentKey{a.Name, a.VC, a.Node}.compare(agentKey{o.Name, o.VC, o.Node})
}

// refreshFrag rewrites the agent's cached listing fragment in place, shard
// mutex held (agentState.frag states the ownership rule readers follow).
// Reusing the buffer matters: heartbeats dominate the workload, and a fresh
// marshal allocation per heartbeat makes the collector the top CPU consumer.
// The bytes are exactly those an element of []agentState encodes to, so a
// listing composed from fragments matches writeJSON of the slice; a heartbeat
// stamp is always a year encoding/json's time format accepts.
func (a *agentState) refreshFrag() {
	b := appendJSONString(append(a.frag[:0], `{"name":`...), a.Name)
	if a.VC != "" {
		b = appendJSONString(append(b, `,"vc":`...), a.VC)
	}
	b = strconv.AppendInt(append(b, `,"node":`...), int64(a.Node), 10)
	b = a.LastSeen.AppendFormat(append(b, `,"last_seen":"`...), time.RFC3339Nano)
	a.frag = append(b, '"', '}')
}

// agentRef pairs a listing sort key with a copy of the agent's JSON fragment —
// what a fan-out read copies out of a shard. A copy, because the ref outlives
// the unlock (agentState.frag).
type agentRef struct {
	agentKey
	frag []byte
}

func (r agentRef) fragment() []byte { return r.frag }

// copyAgentRefs force-sweeps stale agents and snapshots the shard's listing
// view — already sorted, already serialized, fragments copied into one arena
// allocation (agentState.frag). The unit step of the fan-out (cluster-wide)
// listing merge.
func (sh *shard) copyAgentRefs(now time.Time) []agentRef {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sweepLocked(now)
	total := 0
	for _, a := range sh.aorder {
		total += len(a.frag)
	}
	arena := make([]byte, 0, total)
	out := make([]agentRef, 0, len(sh.aorder))
	for _, a := range sh.aorder {
		start := len(arena)
		arena = append(arena, a.frag...)
		out = append(out, agentRef{agentKey{a.Name, a.VC, a.Node}, arena[start:len(arena):len(arena)]})
	}
	return out
}

// getListBufLocked hands out a listing response buffer from the shard's own
// free list. At large fleets a scoped GET /agents body runs to megabytes;
// allocating one per request made the garbage collector the top CPU consumer
// on the read path, and a sync.Pool barely helped because GC empties it (and
// re-zeroing megabyte buffers IS the cost being avoided). Shard-owned slices
// are never collected, so after the first few requests the read path is
// allocation-free. Handlers return the buffer via putListBuf after the
// response write (every writer — socket or recorder — copies, never retains).
func (sh *shard) getListBufLocked() []byte {
	if n := len(sh.listBufs); n > 0 {
		b := sh.listBufs[n-1]
		sh.listBufs = sh.listBufs[:n-1]
		return b[:0]
	}
	return nil
}

// putListBuf returns a listing buffer for reuse, keeping at most a handful so
// a burst of concurrent reads cannot pin unbounded memory.
func (sh *shard) putListBuf(b []byte) {
	sh.mu.Lock()
	if len(sh.listBufs) < 4 {
		sh.listBufs = append(sh.listBufs, b)
	}
	sh.mu.Unlock()
}

// agentListBody composes the complete vc-scoped GET /agents response body
// (byte-identical to encoding the equivalent []agentState, trailing newline
// included) in one pass over the pre-sorted, pre-serialized index — no
// intermediate copies, no per-request sort or marshal. The returned buffer
// must go back via putListBuf once written.
func (sh *shard) agentListBody(now time.Time, vc string) []byte {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sweepLocked(now)
	buf := append(sh.getListBufLocked(), '[')
	for _, a := range sh.aorder {
		if a.VC != vc {
			continue
		}
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, a.frag...)
	}
	return append(buf, ']', '\n')
}

// refreshLocked recomputes score, estimate and the priority key from the
// current state, and invalidates the job's listing fragment — every path that
// changes a serialized field (submit, sample, fail-job, WAL replay, snapshot
// load) ends here. The key is what sh.order is sorted by, so an indexed job is
// removed first and re-inserted after.
func (sh *shard) refreshLocked(js *jobState) {
	j := job.New(js.ID, js.Name, js.User, js.VC, js.GPUs, 0, 0, workload.Config{})
	j.AMP = js.AMP
	if js.Samples >= minSamples {
		j.Profiled = true
		j.Profile = workload.Profile{
			GPUUtil:    js.Profile.GPUUtil,
			GPUMemMB:   js.Profile.GPUMemMB,
			GPUMemUtil: js.Profile.GPUMemUtil,
			AMP:        js.AMP,
		}
	}
	js.Score = sh.srv.analyzer.ScoreJob(j).String()
	sh.est.Invalidate(j.ID)
	js.EstSec = sh.est.EstimateSec(j)
	js.key = core.NewKey(js.GPUs, js.EstSec, 0, 0, js.ID)
	js.frag = nil // every serialized field is settled here; the next list read re-encodes
	sh.touchLocked(js.ID)
}

// touchLocked records that a job's /schedule entry changed (shard.touched).
func (sh *shard) touchLocked(id int) {
	if !sh.touchedAll {
		sh.touched = append(sh.touched, id)
		sh.touchedAll = len(sh.touched) > len(sh.jobs)/2
	}
}

// snapshotLocked copies the shard's job table, sorted by ID — the canonical
// order of a snapshot's job list.
func (sh *shard) snapshotLocked() []*jobState {
	out := make([]*jobState, 0, len(sh.jobs))
	for _, js := range sh.jobs {
		cp := *js
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
