package lucidd

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// asyncServer builds a chaos-enabled server with a telemetry queue of the
// given depth and a pinned clock.
func asyncServer(t *testing.T, shards, queue int) *Server {
	t.Helper()
	s, err := NewServerWith(Options{Shards: shards, EnableChaos: true,
		IngestQueue: queue, clock: parityClock()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// submitJob registers one job and returns its ID.
func submitJob(t *testing.T, s *Server, name, vc string, gpus int) int {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"user":"u","vc":%q,"gpus":%d}`, name, vc, gpus)
	rec := do(t, s, http.MethodPost, "/jobs", body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit %s: %d: %s", name, rec.Code, rec.Body)
	}
	var js jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	return js.ID
}

// postSample pushes one metric sample and returns the status code.
func postSample(t *testing.T, s *Server, id int) int {
	t.Helper()
	body := fmt.Sprintf(`{"job":%d,"gpu_util":42,"gpu_mem_mb":2000,"gpu_mem_util":21}`, id)
	return do(t, s, http.MethodPost, "/metrics", body).Code
}

// jobOf reads a job through the public API (the GET itself is a flush
// barrier).
func jobOf(t *testing.T, s *Server, id int) jobState {
	t.Helper()
	var jobs []jobState
	if err := json.Unmarshal([]byte(get(t, s, "/jobs")), &jobs); err != nil {
		t.Fatal(err)
	}
	for _, js := range jobs {
		if js.ID == id {
			return js
		}
	}
	t.Fatalf("job %d not in /jobs", id)
	return jobState{}
}

// samplesOf reads a job's applied sample count through the public API.
func samplesOf(t *testing.T, s *Server, id int) int { return jobOf(t, s, id).Samples }

// TestIngestBackpressure wedges a shard (by holding its mutex, which every
// taker of the queue needs) and fills its queue — a tiny one, and the default
// depth of a zero Options: the server must refuse further telemetry with 429 +
// Retry-After instead of queueing unboundedly or blocking the request path —
// after exactly capacity 202s — and after the wedge lifts, exactly the
// acknowledged samples (every 202, no 429) must be applied.
func TestIngestBackpressure(t *testing.T) {
	for _, c := range []struct {
		opts     Options
		capacity int
	}{
		{Options{IngestQueue: 2}, 2},
		{Options{}, 4096},
	} {
		s, err := NewServerWith(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		id := submitJob(t, s, "bp", "vc-0", 1)
		sample := fmt.Sprintf(`{"job":%d,"gpu_util":10,"gpu_mem_mb":100,"gpu_mem_util":5}`, id)
		if rec, want := do(t, s, http.MethodPost, "/metrics", sample), fmt.Sprintf(`{"job":%d,"queued":true}`+"\n", id); rec.Code != http.StatusAccepted || rec.Body.String() != want {
			t.Fatalf("queue of %d: POST /metrics: %d %q, want 202 %q", c.capacity, rec.Code, rec.Body, want)
		}
		s.Flush() // queue empty

		sh := s.shards[0]
		sh.mu.Lock()
		accepted, rejected := 0, 0
		for i := 0; i < c.capacity+8 && rejected == 0; i++ {
			rec := do(t, s, http.MethodPost, "/metrics", sample)
			switch rec.Code {
			case http.StatusAccepted:
				accepted++
			case http.StatusTooManyRequests:
				rejected++
				if ra := rec.Header().Get("Retry-After"); ra == "" {
					t.Error("429 without a Retry-After header")
				}
			default:
				t.Fatalf("sample POST %d: unexpected status %d: %s", i, rec.Code, rec.Body)
			}
		}
		if rejected == 0 {
			sh.mu.Unlock()
			t.Fatalf("no 429 after %d accepted samples on a queue of %d", accepted, c.capacity)
		}
		if accepted != c.capacity {
			t.Errorf("queue of %d accepted %d samples before backpressure, want exactly %d", c.capacity, accepted, c.capacity)
		}
		// The depth gauge never waits for the wedged shard.
		if want := fmt.Sprintf("lucidd_ingest_queue_depth{shard=\"0\"} %d\n", c.capacity); !strings.Contains(get(t, s, "/metrics"), want) {
			t.Errorf("GET /metrics with the shard wedged lacks %q", want)
		}
		sh.mu.Unlock()

		// Everything acknowledged — and only that — is applied once.
		if got := samplesOf(t, s, id); got != 1+accepted {
			t.Errorf("applied %d samples, want exactly the %d acknowledged", got, 1+accepted)
		}
		if got := s.met.ingestRejected.Value(); got != float64(rejected) {
			t.Errorf("lucidd_ingest_rejected_total = %v, want %d", got, rejected)
		}
	}
}

// TestFlushWaitsForATakeInProgress: a holder that has taken a shard's queue
// but not yet applied it leaves the queue empty and the WAL synced, so the
// shard looks settled to everything but its mutex. A Flush must still wait for
// that hold and return with its op durable.
func TestFlushWaitsForATakeInProgress(t *testing.T) {
	s, err := NewServerWith(Options{Shards: 4, StateDir: t.TempDir(), clock: parityClock()})
	if err != nil {
		t.Fatal(err)
	}
	vc, _ := twoVCsOnDistinctShards(t, s)
	sh := s.shardFor(vc)
	sh.mu.Lock()
	if rec := do(t, s, http.MethodPost, "/agents", fmt.Sprintf(`{"name":"taken","vc":%q,"node":1}`, vc)); rec.Code != http.StatusAccepted {
		sh.mu.Unlock()
		t.Fatalf("heartbeat: %d: %s", rec.Code, rec.Body)
	}
	ops, _ := sh.takeLocked(0) // the take in progress; the drainer waits for the mutex
	flushed := make(chan struct{})
	go func() {
		s.Flush()
		close(flushed)
	}()
	// Correct code passes whatever the timing; the pause gives a Flush that
	// skips the held shard the time to return before the op is applied.
	time.Sleep(20 * time.Millisecond)
	sh.applyOpsLocked(ops, s.opts.clock(), nil)
	seq := sh.commitPointLocked()
	sh.mu.Unlock()
	if err := sh.commit(seq, false); err != nil {
		t.Fatal(err)
	}
	<-flushed
	if u := sh.wal.Unsynced(); u != 0 {
		t.Errorf("Flush returned with %d unsynced records from a take it did not wait for", u)
	}
}

// TestFlushBarrierReadYourWrites: read paths barrier implicitly, so a
// client that saw its telemetry acknowledged observes it in the very next
// GET — no explicit Flush needed.
func TestFlushBarrierReadYourWrites(t *testing.T) {
	s := asyncServer(t, 4, 1024)
	id := submitJob(t, s, "ryw", "vc-0", 2)
	const n = 5
	for i := 0; i < n; i++ {
		if code := postSample(t, s, id); code != http.StatusAccepted {
			t.Fatalf("sample %d: status %d", i, code)
		}
	}
	if got := samplesOf(t, s, id); got != n {
		t.Errorf("GET /jobs after %d acked samples sees %d", n, got)
	}
	// Heartbeats too: the agent must be visible to the GET that follows its 202.
	rec := do(t, s, http.MethodPost, "/agents", `{"name":"hb-agent","vc":"vc-0","node":3}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("heartbeat: status %d", rec.Code)
	}
	var agents []agentState
	if err := json.Unmarshal([]byte(get(t, s, "/agents")), &agents); err != nil {
		t.Fatal(err)
	}
	if len(agents) != 1 || agents[0].Name != "hb-agent" {
		t.Errorf("agent not visible after acked heartbeat: %+v", agents)
	}
}

// TestCrashDuringAsyncIngest is the kill -9 analogue for the async
// pipeline, per shard: samples acknowledged AND flushed (a barrier passed
// behind them) must be recovered exactly; samples acknowledged but still
// queued when the process dies are in-memory only and may be lost —
// telemetry the agents re-send anyway. The crash is
// simulated by wedging both shard mutexes (the drainers can never reach
// the WAL again) and booting a second server over the same state dir.
func TestCrashDuringAsyncIngest(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, StateDir: dir, IngestQueue: 64}
	s1, err := NewServerWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	vcA, vcB := twoVCsOnDistinctShards(t, s1)
	idA := submitJob(t, s1, "crash-a", vcA, 1)
	idB := submitJob(t, s1, "crash-b", vcB, 2)

	// Acked-and-flushed: 3 samples on shard A, 2 on shard B, then a barrier.
	for i := 0; i < 3; i++ {
		if code := postSample(t, s1, idA); code != http.StatusAccepted {
			t.Fatalf("flushed sample A%d: status %d", i, code)
		}
	}
	for i := 0; i < 2; i++ {
		if code := postSample(t, s1, idB); code != http.StatusAccepted {
			t.Fatalf("flushed sample B%d: status %d", i, code)
		}
	}
	s1.Flush()

	// Wedge both shards, then ack more samples that can never reach disk.
	shA, shB := s1.shardFor(vcA), s1.shardFor(vcB)
	shA.mu.Lock()
	shB.mu.Lock()
	defer shB.mu.Unlock()
	defer shA.mu.Unlock()
	for i := 0; i < 4; i++ {
		if code := postSample(t, s1, idA); code != http.StatusAccepted {
			t.Fatalf("queued sample A%d: status %d", i, code)
		}
	}
	for i := 0; i < 5; i++ {
		if code := postSample(t, s1, idB); code != http.StatusAccepted {
			t.Fatalf("queued sample B%d: status %d", i, code)
		}
	}

	// Kill -9 analogue: no Shutdown, no final snapshot — a fresh server
	// recovers each shard independently from its own WAL.
	s2, err := NewServerWith(opts)
	if err != nil {
		t.Fatalf("post-crash boot: %v", err)
	}
	if got := samplesOf(t, s2, idA); got != 3 {
		t.Errorf("shard A recovered %d samples, want exactly the 3 flushed", got)
	}
	if got := samplesOf(t, s2, idB); got != 2 {
		t.Errorf("shard B recovered %d samples, want exactly the 2 flushed", got)
	}
	wantRecs := map[int]int{shA.idx: 4, shB.idx: 3} // 1 submit + flushed samples each
	for _, r := range s2.ShardRecoveries() {
		if r.Records != wantRecs[r.Shard] {
			t.Errorf("shard %d replayed %d WAL records, want %d", r.Shard, r.Records, wantRecs[r.Shard])
		}
		if r.TornBytes != 0 {
			t.Errorf("shard %d found %d torn bytes (batched fsync must land whole records)", r.Shard, r.TornBytes)
		}
	}
}

// TestIncrementalOrderMatchesFullSort is the index-integrity property test:
// after a randomized op sequence (submits, samples, kills — each of which
// repositions jobs), every shard's incremental order must equal a
// from-scratch sort of its job table, every cached key must equal the live
// one — Prio GPUs × EstSec, Submit 0, the job's ID — and the merged /schedule
// must equal a brute-force global sort. Both sorts are written out by hand,
// not read from core.Key.
func TestIncrementalOrderMatchesFullSort(t *testing.T) {
	s := asyncServer(t, 4, 4096)
	parityOps(t, s, 777, 300)
	s.Flush()

	for _, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.order) != len(sh.jobs) {
			t.Errorf("shard %d: index holds %d jobs, table holds %d", sh.idx, len(sh.order), len(sh.jobs))
		}
		want := make([]*jobState, 0, len(sh.jobs))
		for _, js := range sh.jobs {
			want = append(want, js)
		}
		sort.Slice(want, func(i, j int) bool { return scheduleLess(want[i], want[j]) })
		for i := range want {
			if i < len(sh.order) && sh.order[i] != want[i] {
				t.Errorf("shard %d: index[%d] = job %d, full sort says job %d",
					sh.idx, i, sh.order[i].ID, want[i].ID)
				break
			}
		}
		for _, js := range sh.order {
			if live := (core.Key{Prio: float64(js.GPUs) * js.EstSec, ID: js.ID}); js.key != live {
				t.Errorf("shard %d job %d: cached key %+v != live key %+v", sh.idx, js.ID, js.key, live)
			}
		}
		sh.mu.Unlock()
	}

	// Brute force the global order from /jobs and compare with /schedule.
	var all, sched []jobState
	if err := json.Unmarshal([]byte(get(t, s, "/jobs")), &all); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(get(t, s, "/schedule")), &sched); err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool {
		pi, pj := float64(all[i].GPUs)*all[i].EstSec, float64(all[j].GPUs)*all[j].EstSec
		if pi != pj {
			return pi < pj
		}
		return all[i].ID < all[j].ID
	})
	if len(all) != len(sched) {
		t.Fatalf("/schedule returned %d jobs, /jobs %d", len(sched), len(all))
	}
	for i := range all {
		if all[i].ID != sched[i].ID {
			t.Errorf("/schedule[%d] = job %d, brute-force sort says job %d", i, sched[i].ID, all[i].ID)
			break
		}
	}
}

// TestCrossShardScheduleTieBreak locks in the fan-out tie-break rule: jobs
// with byte-identical priority keys living on DIFFERENT shards (same name,
// user and GPU demand — the estimator does not use the VC, so their
// estimates are equal) must merge in global job-ID order, and the merged
// body must match the single-shard server fed the same sequence.
func TestCrossShardScheduleTieBreak(t *testing.T) {
	multi := asyncServer(t, 4, 1024)
	single := asyncServer(t, 1, 1024)
	vcA, vcB := twoVCsOnDistinctShards(t, multi)
	for i := 0; i < 6; i++ {
		vc := vcA
		if i%2 == 1 {
			vc = vcB
		}
		idM := submitJob(t, multi, "tie", vc, 2)
		idS := submitJob(t, single, "tie", vc, 2)
		if idM != idS {
			t.Fatalf("ID divergence: %d vs %d", idM, idS)
		}
	}
	bodyM, bodyS := get(t, multi, "/schedule"), get(t, single, "/schedule")
	if bodyM != bodyS {
		t.Errorf("equal-key /schedule diverges across shard counts:\n 4: %s\n 1: %s", bodyM, bodyS)
	}
	var sched []jobState
	if err := json.Unmarshal([]byte(bodyM), &sched); err != nil {
		t.Fatal(err)
	}
	if len(sched) != 6 {
		t.Fatalf("want 6 tied jobs, got %d", len(sched))
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].ID <= sched[i-1].ID {
			t.Errorf("equal keys not in global ID order: position %d holds job %d after job %d",
				i, sched[i].ID, sched[i-1].ID)
		}
	}
}

// TestAgentListDeterministicTieBreak: two shards can each hold an agent with
// the same name (VCs hash apart), and the fan-out /agents listing must order
// the duplicates by the full (Name, VC, Node) key, not shard iteration luck.
func TestAgentListDeterministicTieBreak(t *testing.T) {
	s := asyncServer(t, 4, 64)
	vcA, vcB := twoVCsOnDistinctShards(t, s)
	for _, hb := range []string{
		fmt.Sprintf(`{"name":"dup","vc":%q,"node":7}`, vcA),
		fmt.Sprintf(`{"name":"dup","vc":%q,"node":3}`, vcB),
	} {
		if rec := do(t, s, http.MethodPost, "/agents", hb); rec.Code != http.StatusAccepted {
			t.Fatalf("heartbeat: %d: %s", rec.Code, rec.Body)
		}
	}
	var agents []agentState
	if err := json.Unmarshal([]byte(get(t, s, "/agents")), &agents); err != nil {
		t.Fatal(err)
	}
	if len(agents) != 2 {
		t.Fatalf("want 2 same-named agents, got %d", len(agents))
	}
	wantFirstVC := vcA
	if vcB < vcA {
		wantFirstVC = vcB
	}
	if agents[0].VC != wantFirstVC {
		t.Errorf("duplicate-name agents ordered %q before %q; want VC tie-break (%q first)",
			agents[0].VC, agents[1].VC, wantFirstVC)
	}
}

// TestAckOrderUnderConcurrentTakers: one poster's samples for one job fold
// into running means that depend on their order (gpu_util alternates 0 and
// 100, the memory fields never repeat), while scoped /schedule and /agents
// reads and Flush calls take the shard's queue beside its drainer. The job
// must end bit-equal to a reference server that applies the same ops one by
// one in order (shard.applyOne): every taker holds the shard mutex from its
// take to its last apply, so no op can be applied ahead of one acknowledged
// before it. Run under -race in CI.
func TestAckOrderUnderConcurrentTakers(t *testing.T) {
	const n, vc = 10000, "vc-0"
	async := asyncServer(t, 4, 1024)
	ref, err := NewServerWith(Options{Shards: 4, clock: parityClock()})
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, async, "order", vc, 2)
	if got := submitJob(t, ref, "order", vc, 2); got != id {
		t.Fatalf("ID divergence: %d vs %d", id, got)
	}
	refShard, _ := ref.shardOfJob(id)
	rng := rand.New(rand.NewSource(11))
	bodies, ops := make([]string, n), make([]walOp, n)
	for i := range bodies {
		ops[i] = walOp{Op: "metrics", ID: id, GPUUtil: float64(100 * (i % 2)),
			GPUMemMB: 1000 + rng.Float64()*1e5, GPUMemUtil: rng.Float64() * 100}
		bodies[i] = fmt.Sprintf(`{"job":%d,"gpu_util":%v,"gpu_mem_mb":%v,"gpu_mem_util":%v}`,
			id, ops[i].GPUUtil, ops[i].GPUMemMB, ops[i].GPUMemUtil)
	}

	stop := make(chan struct{})
	var takers sync.WaitGroup
	for _, take := range []func(){
		func() { do(t, async, http.MethodGet, "/schedule?vc="+vc, "") },
		func() { do(t, async, http.MethodGet, "/agents?vc="+vc, "") },
		async.Flush,
	} {
		takers.Add(1)
		go func() {
			defer takers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					take()
				}
			}
		}()
	}
	for i, body := range bodies {
		code := do(t, async, http.MethodPost, "/metrics", body).Code
		for ; code == http.StatusTooManyRequests; code = do(t, async, http.MethodPost, "/metrics", body).Code {
			runtime.Gosched() // backpressure: the sample was not acknowledged, resend it
		}
		if code != http.StatusAccepted {
			close(stop)
			takers.Wait()
			t.Fatalf("async sample %d: %d", i, code)
		}
		if r := refShard.applyOne(ops[i]); r.err != nil {
			t.Fatalf("reference sample %d: %v", i, r.err)
		}
	}
	close(stop)
	takers.Wait()
	if got, want := get(t, async, "/jobs"), get(t, ref, "/jobs"); got != want {
		t.Errorf("samples applied out of ack order:\n queued %s\n in order %s", got, want)
	}
}
