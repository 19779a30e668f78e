// Package lucidd implements the HTTP control plane behind cmd/lucidd: a
// deployable skeleton of Lucid's non-intrusive workflow. Users submit job
// metadata, node agents push NVIDIA-SMI-style metric samples, and the
// server maintains profiles, Sharing Scores, duration estimates and a
// priority-ordered queue — all without ever touching user training code,
// which is the paper's A1/A2 deployment story.
//
// The control plane is sharded for multi-tenant scale: state is partitioned
// into per-VC shards (Options.Shards), each with its own mutex, estimator
// clone and — when durability is on — its own WAL and snapshot directory.
// A routing front door maps each mutating request to exactly one shard,
// fans out and merges for cluster-wide reads, and serves read-mostly paths
// (GET /metrics, /healthz) from atomics without touching any shard lock.
package lucidd

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/metrics"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// jobState is the server's view of one registered job.
type jobState struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	User    string  `json:"user"`
	VC      string  `json:"vc"`
	GPUs    int     `json:"gpus"`
	AMP     bool    `json:"amp"`
	Samples int     `json:"samples"`
	Profile profile `json:"profile"`
	Score   string  `json:"score"`
	EstSec  float64 `json:"estimate_sec"`
	// Restarts counts fault-injected kills (/chaos fail-job). A killed job
	// loses its profile — the next samples rebuild it from scratch, exactly
	// like a requeued job re-entering the simulator's profiler.
	Restarts int `json:"restarts"`

	// key is the job's Algorithm 2 key at the last refresh, core.NewKey of
	// GPUs, EstSec and ID: its position in its shard's incremental priority
	// index. Unexported: never serialized, and only read or written under the
	// owning shard's mutex.
	key core.Key
	// frag is the job's pre-marshaled listing fragment, or nil when a mutation
	// has invalidated it (refreshLocked) and no list read has re-encoded it
	// yet (listFrag). The field is read and written under the shard mutex.
	// Ownership rule: a jobFrag is IMMUTABLE ONCE PUBLISHED — a change
	// replaces the pointer, nothing ever writes through it — so a reader
	// keeps the pointer past the unlock without copying.
	frag *jobFrag
}

// compare is the shard index's order: Key.Compare.
func (js *jobState) compare(o *jobState) int { return js.key.Compare(o.key) }

// jobFrag is one version of a job as the list reads serve it: exactly the
// bytes encoding/json emits for the job as an array element, and beside them
// what the merge orders by and the /schedule ActOrder event names its head by.
// List reads copy out and merge the pointers alone (BenchmarkGlobalSchedule).
type jobFrag struct {
	json []byte
	key  core.Key
	vc   string
	gpus int
}

func (f *jobFrag) fragment() []byte { return f.json }

// agentState is one registered node agent, kept alive by heartbeats. The VC
// is the agent's routing key: it decides which shard owns the agent.
type agentState struct {
	Name     string    `json:"name"`
	VC       string    `json:"vc,omitempty"`
	Node     int       `json:"node"` // 0-based node index the agent reports for
	LastSeen time.Time `json:"last_seen"`

	// frag is the agent's pre-marshaled listing fragment, refreshed by
	// refreshFrag on every mutation (shard mutex held). Ownership rule, the
	// opposite of jobState.frag's: the buffer is REWRITTEN IN PLACE on every
	// heartbeat (heartbeats are most of the write load, listings are rare), so
	// a reader either uses it under the shard mutex or copies it out before
	// the unlock — never retains it.
	frag []byte
	// Intrusive heartbeat-order list links (shard mutex held). Heartbeats
	// stamp a monotone clock, so the shard's agents in list order are in
	// LastSeen order and the stale set is always a prefix — the staleness
	// sweep pops the front instead of scanning the whole table.
	lruPrev, lruNext *agentState
}

// profile mirrors the three non-intrusive metrics.
type profile struct {
	GPUUtil    float64 `json:"gpu_util"`
	GPUMemMB   float64 `json:"gpu_mem_mb"`
	GPUMemUtil float64 `json:"gpu_mem_util"`
}

// minSamples before a job is considered profiled.
const minSamples = 3

// traceKeep bounds the in-memory decision-trace window the /trace endpoint
// serves to the newest events; summary counters still cover the server's
// whole lifetime.
const traceKeep = 4096

// Options hardens the server against hostile or failing clients. The zero
// value selects production defaults.
type Options struct {
	// Shards is the number of per-VC state shards. VCs are routed to shards
	// by stable hash, so with Shards >= the number of VCs each VC owns a
	// shard. 0 or 1 selects the single-shard (fully serialized) layout.
	// A state dir, once created, is bound to its shard count.
	Shards int
	// MaxBodyBytes caps every request body; larger payloads get 413.
	// Defaults to 1 MiB.
	MaxBodyBytes int64
	// AgentStaleAfter is the heartbeat-staleness window: agents silent for
	// longer are evicted (their node is presumed failed). Defaults to 90s.
	AgentStaleAfter time.Duration
	// EnableChaos mounts the POST /chaos fault-injection endpoint used by
	// integration tests. Off by default — never expose it in production.
	EnableChaos bool
	// StateDir enables durability: mutating requests are WAL-logged there
	// and compacted into snapshots, and the server recovers the directory's
	// state on construction. Each shard keeps its own WAL and snapshot under
	// <StateDir>/shard-<idx>/ and recovers independently. Empty means
	// in-memory only.
	StateDir string
	// IngestQueue is the depth of each shard's telemetry queue. POST /metrics
	// samples and POST /agents heartbeats are acknowledged with 202 once they
	// are on it, and whoever next holds the shard mutex drains it in ack
	// order — the shard's drainer in holds of up to 256 ops, or a flush. A
	// full queue refuses the POST with 429 + Retry-After (backpressure). Read
	// paths, /chaos and Shutdown flush first, so every acknowledged sample is
	// observed there — see ingest.go for the full contract. Defaults to 4,096.
	IngestQueue int

	// The seams below are set only by this package's tests.

	// clock substitutes time.Now so staleness tests are deterministic.
	clock func() time.Time
	// compactEvery overrides the floor of the per-shard compaction rule: a
	// WAL is compacted into a snapshot once it holds at least this many
	// records and compactRatio × the last snapshot's bytes (tests use tiny
	// values). 0 selects the default (1,024).
	compactEvery int64
	// fs opens and installs the state files: snap.OS, or a test's faults.
	fs snap.FS
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.AgentStaleAfter == 0 {
		o.AgentStaleAfter = 90 * time.Second
	}
	if o.IngestQueue <= 0 {
		o.IngestQueue = 4096
	}
	if o.clock == nil {
		o.clock = time.Now
	}
	if o.fs == nil {
		o.fs = snap.OS
	}
	return o
}

// Server is the HTTP control plane: a routing front door over per-VC shards.
type Server struct {
	opts Options
	// shards holds the per-VC state machines; shardFor routes a VC here.
	// The slice is immutable after construction.
	shards []*shard
	// nextID is the global job-ID allocator (last allocated ID): IDs are
	// cluster-unique regardless of which shard owns the job, and — because
	// allocation is a single atomic increment — a given request sequence
	// yields the same IDs at any shard count (the shard-parity contract).
	nextID atomic.Int64
	// jobShard routes a job ID to the shard owning it (int -> *shard);
	// maintained on submit, WAL replay and snapshot load. Sample ingest is
	// the hot path that needs it: agents report per-job, not per-VC.
	jobShard sync.Map
	analyzer *core.PackingAnalyzer
	mux      *http.ServeMux
	// rec is the decision-trace flight recorder behind /trace: job
	// registrations, profile completions and every /schedule ordering
	// decision are recorded with their reasoning. The recorder is
	// internally synchronized; it is used outside shard locks.
	rec *dtrace.Recorder
	// met is the server's own observability: GET /metrics serves it as
	// Prometheus text. Always non-nil; instruments are internally
	// synchronized and never require a shard lock.
	met     *serverMetrics
	started time.Time
	// sched is the cluster-wide /schedule body kept between reads.
	sched scheduleCache

	// Graceful-shutdown state: once draining flips, new requests are refused
	// with 503 while in-flight ones (tracked by inflight) run to completion.
	draining atomic.Bool
	inflight atomic.Int64
	// delayMS is a chaos knob: artificial per-request latency, letting tests
	// hold requests in flight deterministically while Shutdown drains.
	delayMS atomic.Int64
}

// Model training is deterministic and expensive, so every server shares one
// pass: the packing analyzer is immutable at inference and shared outright;
// the estimator caches per-job state, so each shard gets its own Clone.
var training struct {
	sync.Once
	analyzer *core.PackingAnalyzer
	est      *core.WorkloadEstimator
	err      error
}

func trainShared() error {
	training.Do(func() {
		training.analyzer, training.err = core.TrainPackingAnalyzer(workload.DefaultThresholds)
		if training.err != nil {
			return
		}
		hist := trace.NewGenerator(historySpec()).Emit(0)
		training.est, training.err = core.TrainWorkloadEstimator(hist.Jobs)
	})
	return training.err
}

// historySpec is the synthetic history month the shared estimator trains on.
func historySpec() trace.GenSpec {
	spec := trace.Venus()
	spec.NumJobs = 3000
	return spec
}

// NewServerWith trains the interpretable models (once per process, on a
// synthetic history month standing in for the operator's real logs), builds
// the shard set and wires the routes.
func NewServerWith(opts Options) (*Server, error) {
	if err := trainShared(); err != nil {
		return nil, err
	}
	rec := dtrace.New()
	rec.SetKeep(traceKeep)
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		analyzer: training.analyzer,
		mux:      http.NewServeMux(),
		rec:      rec,
	}
	s.met = newServerMetrics(opts.clock, opts.Shards)
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(i, s)
	}
	s.started = s.opts.clock()
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/schedule", s.handleSchedule)
	s.mux.HandleFunc("/agents", s.handleAgents)
	s.mux.HandleFunc("/models/packing", s.handlePackingModel)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	if s.opts.EnableChaos {
		s.mux.HandleFunc("/chaos", s.handleChaos)
	}
	if s.opts.StateDir != "" {
		// No concurrency yet — the server isn't serving. Each shard replays
		// through the same applyOpsLocked the handlers use and recovers
		// independently: one shard's torn WAL tail never touches a
		// sibling's state.
		if err := s.openStores(s.opts.StateDir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ShardRecovery reports what one shard's durability layer found on boot.
type ShardRecovery struct {
	Shard        int   `json:"shard"`
	Records      int   `json:"records"`
	TornBytes    int64 `json:"torn_bytes"`
	FromSnapshot bool  `json:"from_snapshot"`
}

// ShardRecoveries reports per-shard boot recovery stats (empty when
// durability is off).
func (s *Server) ShardRecoveries() []ShardRecovery {
	var out []ShardRecovery
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.store != nil {
			out = append(out, ShardRecovery{Shard: sh.idx,
				Records:      sh.store.recovered.Records,
				TornBytes:    sh.store.recovered.TornBytes,
				FromSnapshot: sh.store.hadSnapshot})
		}
		sh.mu.Unlock()
	}
	return out
}

// Recovery aggregates boot recovery across shards: total WAL records
// replayed, total torn bytes truncated, and whether any shard loaded a
// snapshot. Zero values when durability is off.
func (s *Server) Recovery() (records int, tornBytes int64, fromSnapshot bool) {
	for _, r := range s.ShardRecoveries() {
		records += r.Records
		tornBytes += r.TornBytes
		fromSnapshot = fromSnapshot || r.FromSnapshot
	}
	return records, tornBytes, fromSnapshot
}

// Shards reports the configured shard count.
func (s *Server) Shards() int { return len(s.shards) }

// IngestQueue reports the per-shard telemetry queue depth.
func (s *Server) IngestQueue() int { return s.opts.IngestQueue }

// ServeHTTP implements http.Handler. It is the hardening choke point: every
// request is counted for drain tracking, refused while draining, optionally
// delayed (chaos), and body-capped before reaching a handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	// Instrument at the choke point so every outcome — drain 503s, body-cap
	// 413s, handler errors — is counted under a bounded path label.
	path := normalizePath(r.URL.Path)
	sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	t := s.met.reg.StartTimer(s.met.httpLatency.With(path))
	defer func() {
		t.Stop()
		s.met.httpReqs.With(path, r.Method, codeLabel(sr.code)).Inc()
	}()
	// Liveness probes bypass the drain gate (and the chaos delay): an
	// orchestrator must be able to see "draining" as a distinct state, not
	// just a refused connection.
	if r.URL.Path == "/healthz" {
		s.handleHealthz(sr, r)
		return
	}
	// Increment-then-check: a request that sneaks past a concurrent
	// Shutdown's Store either sees draining here and bounces, or was already
	// counted and Shutdown waits for it. Either way nothing is dropped
	// mid-handler.
	if s.draining.Load() {
		// Retry-After tells well-behaved clients (and loadgen) this is a
		// retryable refusal, not a failure — the same contract as the
		// ingest-backpressure 429s.
		sr.Header().Set("Retry-After", "1")
		http.Error(sr, "server draining", http.StatusServiceUnavailable)
		return
	}
	if d := s.delayMS.Load(); d > 0 {
		time.Sleep(time.Duration(d) * time.Millisecond)
	}
	if s.opts.MaxBodyBytes > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(sr, r.Body, s.opts.MaxBodyBytes)
	}
	s.mux.ServeHTTP(sr, r)
}

// Shutdown drains the server: new requests get 503 immediately, and the call
// blocks until every in-flight request has completed or ctx expires. Every
// acknowledged op still queued is then applied and fsynced before the stores
// close.
// After a clean drain every shard's durable state (if any) is snapshotted
// and its WAL closed, so the next boot restores from the snapshots alone.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			// Drain expired with requests still in flight: leave the WALs as
			// the source of truth rather than snapshotting a moving state.
			return ctx.Err()
		case <-tick.C:
		}
	}
	// In-flight handlers are done, so nothing is enqueued again: apply and
	// fsync what is queued.
	flushAll(s.shards)
	var err error
	for _, sh := range s.shards {
		if cerr := sh.closeStore(); err == nil {
			err = cerr
		}
	}
	return err
}

// enqueueAck is the ack of a telemetry POST: an O(1) enqueue, no shard
// lock on the request path. 202 + {"<key>":<val>,"queued":true} means
// acknowledged, will be applied in ack order; a queue at its high-water mark
// answers 429 + Retry-After, the explicit backpressure signal — clients treat
// it like the drain-gate 503 (back off and resend) and loadgen counts it as
// Rejected, not an error. The body is hand-rolled: this is the hottest
// response and an encoder pass per sample is measurable at benchmark rates.
// val must already be valid JSON.
func (s *Server) enqueueAck(w http.ResponseWriter, sh *shard, op walOp, key string, val []byte) {
	if !sh.enqueue(op) {
		s.met.ingestRejected.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		return
	}
	buf := make([]byte, 0, len(key)+len(val)+24)
	buf = append(buf, `{"`...)
	buf = append(buf, key...)
	buf = append(buf, `":`...)
	buf = append(buf, val...)
	buf = append(buf, `,"queued":true}`+"\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(buf)
}

// handleJobs registers a job (POST, routed to its VC's shard) or lists jobs
// (GET; ?vc= scopes the listing to one tenant's shard, otherwise the front
// door fans out and merges).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req jobBody
		if !decode(w, r, &req, jobField) {
			return
		}
		if req.Name == "" || req.GPUs <= 0 {
			http.Error(w, "name and positive gpus required", http.StatusBadRequest)
			return
		}
		// Submissions are never queued: the record is fsynced before the 201
		// is written, and the client reads its job's ID and estimate back.
		id := int(s.nextID.Add(1))
		r := s.shardFor(req.VC).applyOne(walOp{Op: "job", ID: id, Name: req.Name,
			User: req.User, VC: req.VC, GPUs: req.GPUs, AMP: req.AMP})
		if r.err != nil {
			http.Error(w, fmt.Sprintf("persist job: %v", r.err), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusCreated, r.job)
	case http.MethodGet:
		// ID order is not an index the shards keep: each view is sorted on
		// its fragments after the unlock, then merged like the schedule.
		views, compose, err := s.readJobFrags("/jobs", r.URL.Query().Get("vc"))
		defer compose.Stop()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		byID := func(a, b *jobFrag) int { return cmp.Compare(a.key.ID, b.key.ID) }
		for _, v := range views {
			slices.SortFunc(v, byID)
		}
		writeJSONRefs(w, mergeSorted(views, byID))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// readShards is the set of shards a list read covers: the one owning vc when
// scoped, else all of them.
func (s *Server) readShards(vc string) []*shard {
	if vc == "" {
		return s.shards
	}
	i := s.shardFor(vc).idx
	return s.shards[i : i+1]
}

// readBarrier flushes the shards a list read covers, so the listing reflects
// every sample and heartbeat acknowledged before the read arrived, and times
// the read's two halves into lucidd_read_barrier_seconds{path} and
// lucidd_read_compose_seconds{path}: the flush that applies and fsyncs what
// was queued, then copy-out + merge + write. The caller stops compose once the body is written.
func (s *Server) readBarrier(path string, shards []*shard) (compose metrics.Timer) {
	t := s.met.reg.StartTimer(s.met.readBarrier.With(path))
	flushAll(shards)
	t.Stop()
	return s.met.reg.StartTimer(s.met.readCompose.With(path))
}

// readJobFrags is the front half of GET /jobs and a scoped GET /schedule:
// barrier, then one priority-ordered view per covered shard (at most one
// shard lock held at a time). An error names a job encoding/json refuses.
func (s *Server) readJobFrags(path, vc string) (views [][]*jobFrag, compose metrics.Timer, err error) {
	shards := s.readShards(vc)
	compose = s.readBarrier(path, shards)
	views = make([][]*jobFrag, len(shards))
	for i, sh := range shards {
		if views[i], err = sh.copyJobFrags(vc); err != nil {
			return nil, compose, err
		}
	}
	return views, compose, nil
}

// handleMetrics is two endpoints sharing a path, split by method: POST
// ingests one NVIDIA-SMI-style sample from a node agent (routed to the shard
// owning the job); GET serves the server's own instruments in Prometheus
// text exposition format without touching any shard lock.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.serveMetrics(w)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req sampleBody
	if !decode(w, r, &req, sampleField) {
		return
	}
	if req.GPUUtil < 0 || req.GPUMemMB < 0 || req.GPUMemUtil < 0 {
		http.Error(w, "metrics must be non-negative", http.StatusBadRequest)
		return
	}
	sh, ok := s.shardOfJob(req.Job)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %d", req.Job), http.StatusNotFound)
		return
	}
	op := walOp{Op: "metrics", ID: req.Job, GPUUtil: req.GPUUtil,
		GPUMemMB: req.GPUMemMB, GPUMemUtil: req.GPUMemUtil}
	var num [20]byte
	s.enqueueAck(w, sh, op, "job", strconv.AppendInt(num[:0], int64(req.Job), 10))
}

// serveMetrics renders the Prometheus scrape. Population gauges are
// refreshed from the shards' atomic counters — no shard lock is taken, so a
// scrape always completes even when a shard is wedged or slow.
func (s *Server) serveMetrics(w http.ResponseWriter) {
	s.observePopulation()
	w.Header().Set("Content-Type", metrics.TextContentType)
	_ = s.met.reg.WriteText(w)
}

// handleSchedule returns the queue in Algorithm 2's order, core.Key's: GPUs ×
// estimated duration ascending, then global job ID (the daemon keys every job
// with Submit 0), and records the ordering decision. ?vc= scopes the queue to
// one tenant's shard, a copy of its pre-sorted incremental index; otherwise
// the front door patches the body it served last (scheduleCache) — no
// per-request re-sort, and the order is identical at any shard count.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	vc := r.URL.Query().Get("vc")
	if vc == "" {
		s.serveGlobalSchedule(w)
		return
	}
	views, compose, err := s.readJobFrags("/schedule", vc)
	defer compose.Stop()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := mergeSorted(views, byKey)
	if len(out) > 0 {
		s.rec.Record(s.orderEvent(out[0], len(out), func(i int) core.Key { return out[i].key }))
	}
	writeJSONRefs(w, out)
}

// handleAgents registers or heartbeats a node agent (POST, routed to its
// VC's shard) and lists live agents (GET; ?vc= scopes to one shard). Both
// paths first evict agents whose heartbeat went stale — the non-intrusive
// analogue of a node failure detector: the scheduler never reaches into the
// node, it just stops trusting silence. The sweep is strictly shard-local,
// so one tenant's eviction storm never stalls another tenant's heartbeats.
func (s *Server) handleAgents(w http.ResponseWriter, r *http.Request) {
	now := s.opts.clock()
	switch r.Method {
	case http.MethodPost:
		var req agentBody
		if !decode(w, r, &req, agentField) {
			return
		}
		if req.Name == "" || req.Node < 0 {
			http.Error(w, "name and non-negative node required", http.StatusBadRequest)
			return
		}
		sh := s.shardFor(req.VC)
		op := walOp{Op: "agent", Name: req.Name, VC: req.VC, Node: req.Node,
			UnixNano: now.UnixNano()}
		// Heartbeats are ~3/4 of the default mix. The name is an arbitrary
		// decoded string, quoted as encoding/json quotes it (strconv.Quote
		// differs on some inputs).
		var name [64]byte
		s.enqueueAck(w, sh, op, "agent", appendJSONString(name[:0], req.Name))
	case http.MethodGet:
		// The listing is served from the per-shard (Name, VC, Node) indexes:
		// a scoped read copies one pre-sorted, pre-serialized view, the
		// cluster-wide read K-way-merges them — no per-request sort, no
		// per-request struct marshal. agentKey documents why the full key
		// (not Name alone) orders every possible cross-shard duplicate.
		vc := r.URL.Query().Get("vc")
		shards := s.readShards(vc)
		defer s.readBarrier("/agents", shards).Stop()
		if vc != "" {
			sh := shards[0]
			body := sh.agentListBody(now, vc)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			sh.putListBuf(body)
			return
		}
		per := make([][]agentRef, len(shards))
		for i, sh := range shards {
			per[i] = sh.copyAgentRefs(now)
		}
		writeJSONRefs(w, mergeSorted(per, func(a, b agentRef) int { return a.compare(b.agentKey) }))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleChaos injects faults for integration tests (mounted only when
// Options.EnableChaos is set):
//
//	{"action":"evict-agent","agent":NAME}  — drop an agent as if its node died
//	{"action":"fail-job","job":ID}         — kill a job: profile reset, requeued
//	{"action":"delay","delay_ms":N}        — add per-request latency (0 clears)
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Action  string `json:"action"`
		Agent   string `json:"agent"`
		Job     int    `json:"job"`
		DelayMS int64  `json:"delay_ms"`
	}
	if !decode(w, r, &req, nil) {
		return
	}
	switch req.Action {
	case "evict-agent":
		// Agent names carry no shard hint, so the front door offers the op to
		// each shard in turn (one lock at a time) until one holds the victim —
		// fine for a test-only path. Each shard is flushed first so an
		// eviction cannot overtake a heartbeat the server acknowledged before
		// it. A persist error is deliberately not a 500 on either action: an
		// unlogged chaos op is the same class as the unsynced telemetry tail.
		for _, sh := range s.shards {
			sh.flush()
			if r := sh.applyOne(walOp{Op: "evict-agent", Name: req.Agent}); r.ok {
				writeJSON(w, http.StatusOK, r.agent)
				return
			}
		}
		http.Error(w, fmt.Sprintf("unknown agent %q", req.Agent), http.StatusNotFound)
	case "fail-job":
		sh, ok := s.shardOfJob(req.Job)
		if ok {
			// Flush before the kill: samples acknowledged before this
			// request must fold into the profile the kill then resets — the op
			// order the parity contract fixes, regardless of ingest mode.
			sh.flush()
			if r := sh.applyOne(walOp{Op: "fail-job", ID: req.Job}); r.ok {
				writeJSON(w, http.StatusOK, r.job)
				return
			}
		}
		http.Error(w, fmt.Sprintf("unknown job %d", req.Job), http.StatusNotFound)
	case "delay":
		if req.DelayMS < 0 {
			http.Error(w, "delay_ms must be non-negative", http.StatusBadRequest)
			return
		}
		s.delayMS.Store(req.DelayMS)
		writeJSON(w, http.StatusOK, map[string]int64{"delay_ms": req.DelayMS})
	default:
		http.Error(w, fmt.Sprintf("unknown action %q", req.Action), http.StatusBadRequest)
	}
}

// handleTrace serves the decision-trace flight recorder: a JSON document
// with the deterministic digest, the lifetime summary and the retained
// event window, or the raw retained events as JSONL with ?format=jsonl.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := s.rec.WriteJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Digest  string         `json:"digest"`
		Count   int64          `json:"count"`
		Summary dtrace.Summary `json:"summary"`
		Events  []dtrace.Event `json:"events"`
	}{
		Digest:  s.rec.Digest(),
		Count:   s.rec.Summary().Total,
		Summary: s.rec.Summary(),
		Events:  s.rec.Events(),
	})
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503 with
// "draining" once Shutdown has begun. It is routed ahead of the drain gate in
// ServeHTTP so orchestrators can observe the drain instead of a bare refusal,
// and it touches no shard lock — a wedged shard cannot fail the probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// durableStatus is the /statusz view of one durability layer (or, at the top
// level, the aggregate across shards).
type durableStatus struct {
	StateDir           string  `json:"state_dir"`
	WALRecords         int64   `json:"wal_records"` // records since the last snapshot
	WALBytes           int64   `json:"wal_bytes"`
	WALUnsynced        int64   `json:"wal_unsynced"` // appended records no fsync has covered yet
	HasSnapshot        bool    `json:"has_snapshot"`
	SnapshotAgeSec     float64 `json:"snapshot_age_sec"`
	Compactions        int64   `json:"compactions"`
	RecoveredRecords   int     `json:"recovered_records"`
	RecoveredTornBytes int64   `json:"recovered_torn_bytes"`
}

// shardStatus is the /statusz view of one shard.
type shardStatus struct {
	Shard   int            `json:"shard"`
	Jobs    int            `json:"jobs"`
	Agents  int            `json:"agents"`
	Durable *durableStatus `json:"durable,omitempty"`
}

// handleStatusz reports operational state: uptime, population counts, drain
// state and — when durability is on — per-shard WAL/snapshot lag plus the
// aggregate. Population counts come from the shards' atomics; the durable
// detail is a fan-out that holds one shard lock at a time.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	now := s.opts.clock()
	out := struct {
		Status    string  `json:"status"`
		UptimeSec float64 `json:"uptime_sec"`
		Jobs      int     `json:"jobs"`
		Agents    int     `json:"agents"`
		Shards    int     `json:"shards"`
		Draining  bool    `json:"draining"`
		// IngestDropped mirrors lucidd_ingest_dropped_total: samples the
		// server acknowledged with 202 and could not apply.
		IngestDropped int64          `json:"ingest_dropped"`
		Durable       *durableStatus `json:"durable,omitempty"`
		ByShard       []shardStatus  `json:"by_shard,omitempty"`
	}{Status: "ok", Shards: len(s.shards), Draining: s.draining.Load(),
		IngestDropped: int64(s.met.ingestDropped.Value())}
	if out.Draining {
		out.Status = "draining"
	}
	out.UptimeSec = now.Sub(s.started).Seconds()
	durable := false
	for _, sh := range s.shards {
		st := shardStatus{Shard: sh.idx,
			Jobs:   int(sh.nJobs.Load()),
			Agents: int(sh.nAgents.Load())}
		out.Jobs += st.Jobs
		out.Agents += st.Agents
		sh.mu.Lock()
		if d := sh.store; d != nil {
			st.Durable = &durableStatus{
				StateDir:           d.dir,
				WALRecords:         sh.wal.Records(),
				WALBytes:           sh.wal.Bytes(),
				WALUnsynced:        sh.wal.Unsynced(),
				HasSnapshot:        d.hadSnapshot,
				SnapshotAgeSec:     now.Sub(d.snapTime).Seconds(),
				Compactions:        d.compactions,
				RecoveredRecords:   d.recovered.Records,
				RecoveredTornBytes: d.recovered.TornBytes,
			}
			durable = true
		}
		sh.mu.Unlock()
		out.ByShard = append(out.ByShard, st)
	}
	if durable {
		agg := &durableStatus{StateDir: s.opts.StateDir}
		for _, st := range out.ByShard {
			if st.Durable == nil {
				continue
			}
			agg.WALRecords += st.Durable.WALRecords
			agg.WALBytes += st.Durable.WALBytes
			agg.WALUnsynced += st.Durable.WALUnsynced
			agg.HasSnapshot = agg.HasSnapshot || st.Durable.HasSnapshot
			if st.Durable.SnapshotAgeSec > agg.SnapshotAgeSec {
				agg.SnapshotAgeSec = st.Durable.SnapshotAgeSec
			}
			agg.Compactions += st.Durable.Compactions
			agg.RecoveredRecords += st.Durable.RecoveredRecords
			agg.RecoveredTornBytes += st.Durable.RecoveredTornBytes
		}
		out.Durable = agg
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePackingModel renders the decision tree (system transparency, A5).
func (s *Server) handlePackingModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.analyzer.Render())
	imp := s.analyzer.FeatureImportances()
	for i, name := range s.analyzer.FeatureNames() {
		fmt.Fprintf(w, "importance %-36s %.3f\n", name, imp[i])
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// fragRef is what writeJSONRefs needs of a list element: its pre-marshaled
// JSON. *jobFrag and agentRef are the two implementations.
type fragRef interface{ fragment() []byte }

// listChunk bounds the memory one writeJSONRefs response holds beyond its
// refs: the body is composed and written listChunk bytes at a time, never
// whole (/jobs is ~1 MB at 4,096 jobs, /agents 3 MB at 32k agents). The global
// /schedule body is the exception, kept whole between reads (scheduleCache).
const listChunk = 16 << 10

// writeJSONRefs is THE fragment-list writer: it streams a 200 JSON array made
// of pre-marshaled fragments — byte-identical to writeJSON of the equivalent
// slice of structs, an empty list as [] and the encoder's trailing newline
// included. Every writer (socket, recorder) copies what Write hands it, so the
// chunk buffer is reused as soon as Write returns. A write error means the
// client went away; like writeJSON, the handler has nobody left to tell.
func writeJSONRefs[T fragRef](w http.ResponseWriter, refs []T) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf := append(make([]byte, 0, listChunk), '[')
	for i, r := range refs {
		frag := r.fragment()
		if len(buf) > 0 && len(buf)+len(frag)+1 > listChunk {
			_, _ = w.Write(buf)
			buf = buf[:0]
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, frag...)
	}
	_, _ = w.Write(append(buf, ']', '\n'))
}
