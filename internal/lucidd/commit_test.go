package lucidd

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/snap"
)

// The write path's commit-point contract (store.go's header): records are
// written under the shard mutex and fsynced outside it, and the disk is asked
// only when somebody is waiting or SyncEvery records have piled up.

// waitApplied blocks until the drainers have applied n telemetry ops in total.
// Deliberately not a flush barrier: a barrier would fsync what the caller is
// about to count as unsynced.
func waitApplied(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.met.ingestApplied.Value() < float64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("drainers applied %v ops, waiting for %d", s.met.ingestApplied.Value(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// postApplied POSTs one telemetry op, requires its 202 and waits until the
// drainer has applied it: each op then gets its own hold of the shard mutex
// and its own commit, whatever the test counts per op.
func postApplied(t *testing.T, s *Server, path, body string) {
	t.Helper()
	n := int(s.met.ingestApplied.Value())
	if rec := do(t, s, http.MethodPost, path, body); rec.Code != http.StatusAccepted {
		t.Fatalf("POST %s: %d: %s", path, rec.Code, rec.Body)
	}
	waitApplied(t, s, n+1)
}

// compactions reads lucidd_compactions_total.
func compactions(s *Server) int { return int(s.met.compacts.Value()) }

// TestAppendTimerHoldsNoFsync: lucidd_wal_append_seconds times an append and
// nothing else, every fsync runs without the shard mutex, and telemetry
// applied one op per hold reaches the disk once per SyncEvery records.
func TestAppendTimerHoldsNoFsync(t *testing.T) {
	s, err := NewServerWith(Options{StateDir: t.TempDir(), clock: parityClock()})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	observe := sh.wal.OnSync
	free, held := 0, 0
	sh.wal.OnSync = func(d time.Duration) {
		observe(d)
		if sh.mu.TryLock() {
			sh.mu.Unlock()
			free++
		} else {
			held++
		}
	}
	for i := 0; i < 200; i++ {
		postApplied(t, s, "/agents", fmt.Sprintf(`{"name":"agent-%d","vc":"vc-0","node":%d}`, i%7, i%7))
	}
	if got := s.met.walAppend.Count(); got != 200 {
		t.Errorf("lucidd_wal_append_seconds_count = %d, want 200", got)
	}
	if got := s.met.walFsync.Count(); got != 3 {
		t.Errorf("lucidd_wal_fsync_seconds_count = %d, want 3 (200 heartbeats, one fsync per %d)", got, sh.wal.SyncEvery)
	}
	if held != 0 || free != 3 {
		t.Errorf("%d fsyncs ran with the shard mutex held, %d without; want 0 and 3", held, free)
	}
	if got := sh.wal.Unsynced(); got != 200-3*64 {
		t.Errorf("unsynced tail = %d, want %d", got, 200-3*64)
	}
}

// TestFlushMeansDurable pins fsync on demand from both sides: telemetry nobody
// waits for stays unsynced until SyncEvery records have piled up, and every
// barrier — Flush, a list read, /chaos — returns with nothing unsynced on the
// shards it covers. Every telemetry op is queued; the async-true subtest name
// keeps the test ID stable.
func TestFlushMeansDurable(t *testing.T) {
	t.Run("async-true", flushMeansDurable)
}

func flushMeansDurable(t *testing.T) {
	s, err := NewServerWith(Options{Shards: 4, StateDir: t.TempDir(), EnableChaos: true, clock: parityClock()})
	if err != nil {
		t.Fatal(err)
	}
	vcA, vcB := twoVCsOnDistinctShards(t, s)
	shA, shB := s.shardFor(vcA), s.shardFor(vcB)
	telemetry := func(vc string, job, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			body, path := fmt.Sprintf(`{"name":"agent-%s-%d","vc":%q,"node":%d}`, vc, i%5, vc, i%5), "/agents"
			if i%3 == 0 {
				body, path = fmt.Sprintf(`{"job":%d,"gpu_util":40,"gpu_mem_mb":3000,"gpu_mem_util":20}`, job), "/metrics"
			}
			postApplied(t, s, path, body)
		}
	}
	unsynced := func() (out []int64) {
		for _, sh := range s.shards {
			out = append(out, sh.wal.Unsynced())
		}
		return out
	}
	allZero := func(when string) {
		t.Helper()
		for i, u := range unsynced() {
			if u != 0 {
				t.Errorf("%s: shard %d has %d unsynced records, want 0", when, i, u)
			}
		}
	}

	idA := submitJob(t, s, "a", vcA, 2)
	idB := submitJob(t, s, "b", vcB, 1)
	allZero("after two 201s")

	// Nobody waits for telemetry: N < SyncEvery ops leave exactly N
	// unsynced, and the SyncEvery-th pays for all of them.
	for _, n := range []int{31, 63} {
		telemetry(vcA, idA, n-int(shA.wal.Unsynced()))
		if got := shA.wal.Unsynced(); got != int64(n) {
			t.Fatalf("%d telemetry ops and no barrier: %d unsynced, want %d", n, got, n)
		}
	}
	telemetry(vcA, idA, 1)
	if got := shA.wal.Unsynced(); got != 0 {
		t.Fatalf("the 64th unsynced record did not bring the tail to the disk: %d unsynced", got)
	}

	telemetry(vcA, idA, 5)
	telemetry(vcB, idB, 3)
	if a, b := shA.wal.Unsynced(), shB.wal.Unsynced(); a != 5 || b != 3 {
		t.Fatalf("before Flush: %d and %d unsynced, want 5 and 3", a, b)
	}
	s.Flush()
	allZero("after Flush")

	telemetry(vcA, idA, 4)
	telemetry(vcB, idB, 2)
	get(t, s, "/jobs?vc="+vcA)
	if a, b := shA.wal.Unsynced(), shB.wal.Unsynced(); a != 0 || b != 2 {
		t.Errorf("after a read scoped to %s: %d and %d unsynced, want 0 and 2 (only the covered shard)", vcA, a, b)
	}
	telemetry(vcA, idA, 4)
	get(t, s, "/schedule")
	allZero("after a cluster-wide read")

	telemetry(vcA, idA, 4)
	telemetry(vcB, idB, 2)
	if rec := do(t, s, http.MethodPost, "/chaos", `{"action":"evict-agent","agent":"nobody"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("evict of an unknown agent: %d", rec.Code)
	}
	allZero("after /chaos evict-agent visited every shard")

	telemetry(vcA, idA, 4)
	if rec := do(t, s, http.MethodPost, "/chaos", fmt.Sprintf(`{"action":"fail-job","job":%d}`, idA)); rec.Code != http.StatusOK {
		t.Fatalf("fail-job: %d: %s", rec.Code, rec.Body)
	}
	// The barrier in front of the kill made the samples durable; the
	// kill's own record is telemetry class and waits for the next commit.
	if got := shA.wal.Unsynced(); got != 1 {
		t.Errorf("after /chaos fail-job: %d unsynced, want 1 (the chaos record itself)", got)
	}

	var status struct {
		Durable durableStatus `json:"durable"`
		ByShard []shardStatus `json:"by_shard"`
	}
	if err := json.Unmarshal([]byte(get(t, s, "/statusz")), &status); err != nil {
		t.Fatal(err)
	}
	if status.Durable.WALUnsynced != 1 || status.ByShard[shA.idx].Durable.WALUnsynced != 1 {
		t.Errorf("/statusz wal_unsynced = %d (aggregate), %d (shard %d), want 1 and 1",
			status.Durable.WALUnsynced, status.ByShard[shA.idx].Durable.WALUnsynced, shA.idx)
	}
}

// TestGroupCommitNoAckLost: submissions racing each other, a heartbeat flood and
// list reads on one shard share fsyncs — and every 201 is still on disk with
// the fields it was acknowledged with when the process is abandoned. Run under
// -race in CI: committers fsync and read the WAL's counters without the mutex
// the appends happen under.
func TestGroupCommitNoAckLost(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, StateDir: dir, IngestQueue: 256}
	s1, err := NewServerWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	const submitters, each = 8, 20
	var (
		mu    sync.Mutex
		acked = map[int]jobState{}
		stop  atomic.Bool
		bg    sync.WaitGroup
		wg    sync.WaitGroup
	)
	for g := 0; g < 2; g++ {
		bg.Add(1)
		go func(g int) {
			defer bg.Done()
			for i := 0; !stop.Load(); i++ {
				hb := fmt.Sprintf(`{"name":"agent-%d-%d","vc":"hot","node":%d}`, g, i%50, i%50)
				if rec := do(t, s1, http.MethodPost, "/agents", hb); rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
					t.Errorf("heartbeat: %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for !stop.Load() {
			if rec := do(t, s1, http.MethodGet, "/schedule", ""); rec.Code != http.StatusOK {
				t.Errorf("GET /schedule: %d", rec.Code)
				return
			}
		}
	}()
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				body := fmt.Sprintf(`{"name":"job-%d-%d","user":"u%d","vc":"hot","gpus":%d,"amp":%v}`, g, i, g, 1+i%8, i%2 == 0)
				rec := do(t, s1, http.MethodPost, "/jobs", body)
				if rec.Code != http.StatusCreated {
					t.Errorf("submit: %d: %s", rec.Code, rec.Body)
					return
				}
				var js jobState
				if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[js.ID] = js
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	bg.Wait()
	if len(acked) != submitters*each {
		t.Fatalf("%d distinct IDs acknowledged, want %d", len(acked), submitters*each)
	}
	fsyncs := s1.met.walFsync.Count()
	t.Logf("%d fsyncs for %d acknowledged jobs (%.2f per job) beside %v applied heartbeats",
		fsyncs, len(acked), float64(fsyncs)/float64(len(acked)), s1.met.ingestApplied.Value())

	// Kill -9 analogue: wedge every shard so the drainers can never reach a WAL
	// again, and boot a second server from what the files hold.
	for _, sh := range s1.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	s2, err := NewServerWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []jobState
	if err := json.Unmarshal([]byte(jobsBody(t, s2)), &jobs); err != nil {
		t.Fatal(err)
	}
	got := map[int]jobState{}
	for _, js := range jobs {
		got[js.ID] = js
	}
	for id, want := range acked {
		if js, ok := got[id]; !ok {
			t.Errorf("job %d was acknowledged with 201 and is gone after the reboot", id)
		} else if js != want {
			t.Errorf("job %d recovered as %+v, acknowledged as %+v", id, js, want)
		}
	}
}

// TestFailedCommitWithdrawsTheJob: the fsync of a submission fails after the
// shard mutex was released. The client is told 500, the job is not listed and
// no "registered" event was recorded; telemetry on the same shard keeps being
// acked and applied, and the flush commit that asks the disk for it fails and
// is counted in lucidd_ingest_errors_total.
func TestFailedCommitWithdrawsTheJob(t *testing.T) {
	// A disk that takes writes and fails fsync with EIO: the append under the
	// mutex succeeds, the commit after it does not.
	failing, _, err := snap.OpenWALFS(&faultFS{fail: func(op string) error {
		if op == "sync" {
			return syscall.EIO
		}
		return nil
	}}, filepath.Join(t.TempDir(), "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerWith(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	kept := submitJob(t, s, "kept", "vc-0", 1)
	sh := s.shards[0]
	good := sh.wal
	failing.SyncEvery = good.SyncEvery
	sh.wal = failing

	rec := do(t, s, http.MethodPost, "/jobs", `{"name":"doomed","user":"u","vc":"vc-0","gpus":2}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("submit with a failing fsync: %d: %s, want 500", rec.Code, rec.Body)
	}
	var jobs []jobState
	if err := json.Unmarshal([]byte(jobsBody(t, s)), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != kept {
		t.Errorf("jobs after a failed submission = %+v, want only job %d", jobs, kept)
	}
	if _, ok := s.shardOfJob(kept + 1); ok {
		t.Error("the withdrawn job is still routable")
	}
	if n := sh.nJobs.Load(); n != 1 {
		t.Errorf("population counter = %d, want 1", n)
	}
	for _, ev := range s.rec.Events() {
		if ev.Job == kept+1 {
			t.Errorf("event recorded for the withdrawn job: %+v", ev)
		}
	}
	// Telemetry is acked and applied whatever the disk says; a flush commit
	// that asks the disk fails, and nobody waits on it but a counter (the
	// /jobs read above counted one already).
	errs := s.met.ingestErrors.Value()
	postApplied(t, s, "/metrics", fmt.Sprintf(`{"job":%d,"gpu_util":42,"gpu_mem_mb":2000,"gpu_mem_util":21}`, kept))
	s.Flush()
	if got := s.met.ingestErrors.Value() - errs; got != 1 {
		t.Errorf("lucidd_ingest_errors_total rose by %v over one failed flush commit, want 1", got)
	}
	sh.mu.Lock()
	samples := sh.jobs[kept].Samples
	sh.mu.Unlock()
	if samples != 1 {
		t.Errorf("job %d holds %d samples after one acked sample, want 1", kept, samples)
	}
	sh.wal = good
	if id := submitJob(t, s, "after", "vc-0", 1); id != kept+2 {
		t.Errorf("ID after a withdrawn submission = %d, want %d (never reused)", id, kept+2)
	}
}

// ratioOp applies the i-th op of TestCompactionByRatio's stream: a tenth
// submissions, the rest samples and heartbeats, so the state grows slowly while
// the log grows fast — the regime the ratio is for.
func ratioOp(t *testing.T, s *Server, rng *rand.Rand, i int) {
	t.Helper()
	switch roll := rng.Intn(10); {
	case roll == 0 || i < 8:
		if rec := do(t, s, http.MethodPost, "/jobs", fmt.Sprintf(`{"name":"ratio-%d","user":"u","vc":"vc-0","gpus":%d}`, i, 1+rng.Intn(8))); rec.Code != http.StatusCreated {
			t.Fatalf("op %d: %d: %s", i, rec.Code, rec.Body)
		}
	case roll < 4:
		postApplied(t, s, "/metrics", fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`,
			1+rng.Intn(8), rng.Intn(101), 500+rng.Intn(30000), rng.Intn(101)))
	default:
		a := rng.Intn(40)
		postApplied(t, s, "/agents", fmt.Sprintf(`{"name":"agent-%02d","vc":"vc-0","node":%d}`, a, a))
	}
}

// TestCompactionByRatio drives one fixed op stream through a one-shard server
// with a 16-record floor and checks the rule from three sides: the number of
// compactions it causes is pinned, the WAL never ends an op both past the floor
// and past compactRatio × the last snapshot, and a server rebooted at the point
// where its log was longest serves the same bytes as a twin that never stopped.
func TestCompactionByRatio(t *testing.T) {
	const ops, floor = 900, 16
	open := func(dir string) *Server {
		s, err := NewServerWith(Options{StateDir: dir, compactEvery: floor, clock: parityClock()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bodies := func(s *Server) string {
		return get(t, s, "/jobs") + get(t, s, "/schedule") + get(t, s, "/agents")
	}

	// Pass 1: the rule, op by op, and where the log is longest.
	scout := open(t.TempDir())
	sh := scout.shards[0]
	rng := rand.New(rand.NewSource(7))
	worstOp, worstBytes, worstRecords := 0, int64(0), int64(0)
	for i := 0; i < ops; i++ {
		ratioOp(t, scout, rng, i)
		records, bytes, snapBytes := sh.wal.Records(), sh.wal.Bytes(), sh.store.snapBytes
		if records >= floor && bytes >= compactRatio*snapBytes {
			t.Fatalf("op %d left a WAL of %d records / %d bytes beside a %d-byte snapshot: the rule says compact",
				i, records, bytes, snapBytes)
		}
		if bytes > worstBytes {
			worstOp, worstBytes, worstRecords = i, bytes, records
		}
	}
	// Count-only compaction (the rule before the ratio) would have fired
	// ops/floor = 56 times on this stream.
	if got := compactions(scout); got != 7 {
		t.Errorf("%d compactions over the stream, pinned at 7", got)
	}
	if worstRecords < 4*floor {
		t.Fatalf("longest log is %d records: the ratio never outgrew the %d-record floor, the stream proves nothing", worstRecords, floor)
	}

	// Pass 2: twins in lockstep, one of them killed and rebooted at worstOp.
	dir := t.TempDir()
	twin, victim := open(t.TempDir()), open(dir)
	rngT, rngV := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		ratioOp(t, twin, rngT, i)
		ratioOp(t, victim, rngV, i)
		if i != worstOp {
			continue
		}
		if got := victim.shards[0].wal.Bytes(); got != worstBytes {
			t.Fatalf("victim's log is %d bytes at op %d, the scout's was %d: the stream is not deterministic", got, i, worstBytes)
		}
		victim = open(dir) // abandoned without Shutdown: the files are what kill -9 leaves
		if n, _, fromSnap := victim.Recovery(); int64(n) != worstRecords || !fromSnap {
			t.Fatalf("reboot replayed %d records (snapshot %v), want the %d of the longest log on top of a snapshot", n, fromSnap, worstRecords)
		}
		if got, want := bodies(victim), bodies(twin); got != want {
			t.Fatalf("rebooted at the longest log, bodies differ:\n got %s\nwant %s", got, want)
		}
	}
	if got, want := bodies(victim), bodies(twin); got != want {
		t.Errorf("at the end of the stream the rebooted server differs from its twin:\n got %s\nwant %s", got, want)
	}
}

// TestBarriersOverlapAcrossShards: a multi-shard flush runs on every shard at
// once, so one slow shard delays the caller but not its siblings' fsyncs.
// Flushes taken one shard after another would leave the last shard's tail
// unsynced for as long as the first is wedged.
func TestBarriersOverlapAcrossShards(t *testing.T) {
	s, err := NewServerWith(Options{Shards: 4, StateDir: t.TempDir(), IngestQueue: 64, clock: parityClock()})
	if err != nil {
		t.Fatal(err)
	}
	last := s.shards[len(s.shards)-1]
	vc := ""
	for i := 0; vc == ""; i++ {
		if c := fmt.Sprintf("vc-%d", i); s.shardFor(c) == last {
			vc = c
		}
	}
	for i := 0; i < 5; i++ {
		hb := fmt.Sprintf(`{"name":"agent-%d","vc":%q,"node":%d}`, i, vc, i)
		if rec := do(t, s, http.MethodPost, "/agents", hb); rec.Code != http.StatusAccepted {
			t.Fatalf("heartbeat: %d: %s", rec.Code, rec.Body)
		}
	}
	waitApplied(t, s, 5)
	if got := last.wal.Unsynced(); got != 5 {
		t.Fatalf("%d unsynced before the barrier, want 5", got)
	}

	first := s.shards[0]
	first.mu.Lock() // its flush will block on the mutex
	flushed := make(chan struct{})
	go func() {
		s.Flush()
		close(flushed)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for last.wal.Unsynced() != 0 {
		if time.Now().After(deadline) {
			first.mu.Unlock()
			t.Fatalf("shard %d still has %d unsynced records while shard 0 is wedged: its barrier waits behind shard 0's", last.idx, last.wal.Unsynced())
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Shard 3 is synced, but shard 0's mutex is still held: Flush must keep
	// waiting on it. A Flush that skipped shard 0 returns within
	// microseconds of shard 3's fsync, so a bounded wait catches it.
	select {
	case <-flushed:
		t.Error("Flush returned with shard 0's barrier still pending")
	case <-time.After(50 * time.Millisecond):
	}
	first.mu.Unlock()
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("Flush did not return after the wedge lifted")
	}
}

// TestCompactionInsideOneHold: one flush applies 50 queued ops in one hold of
// the shard mutex while the compaction rule fires several times inside it. A
// record staged before a compaction is in the snapshot and must never reach
// the log after it: after every request the log on disk is exactly as long as
// /statusz says, and a reboot from the files of a server that was never shut
// down serves what the live server serves.
func TestCompactionInsideOneHold(t *testing.T) {
	dir := t.TempDir()
	opts := Options{StateDir: dir, compactEvery: 4, IngestQueue: 64, clock: parityClock()}
	s, err := NewServerWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	check := func(when string) {
		t.Helper()
		var status struct {
			Durable durableStatus `json:"durable"`
		}
		if err := json.Unmarshal([]byte(get(t, s, "/statusz")), &status); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, shardDirName(0), walFileName))
		if err != nil {
			t.Fatal(err)
		}
		if status.Durable.WALBytes != fi.Size() {
			t.Fatalf("%s: /statusz wal_bytes = %d, the log file holds %d bytes", when, status.Durable.WALBytes, fi.Size())
		}
	}
	jobs := []int{submitJob(t, s, "a", "vc-0", 2), submitJob(t, s, "b", "vc-0", 1)}
	check("after the submissions")
	op := func(i int) {
		t.Helper()
		path, body := "/agents", fmt.Sprintf(`{"name":"agent-%d","vc":"vc-0","node":%d}`, i%3, i%3)
		if i%2 == 1 {
			path, body = "/metrics", fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`, jobs[i%4/2], 10+i, 1000+i, i)
		}
		if rec := do(t, s, http.MethodPost, path, body); rec.Code != http.StatusAccepted {
			t.Fatalf("op %d: %d: %s", i, rec.Code, rec.Body)
		}
	}
	for i := 0; i < 6; i++ {
		op(i)
		s.Flush()
		check(fmt.Sprintf("after op %d", i))
	}

	// A drain that ran beside a Flush counts its hold after Flush returns.
	waitApplied(t, s, 6)
	sh.mu.Lock() // the drainer waits: all 50 ops are taken by one holder
	for i := 6; i < 56; i++ {
		op(i)
	}
	holds, compacts := s.met.ingestBatch.Count(), compactions(s)
	sh.mu.Unlock()
	s.Flush()
	waitApplied(t, s, 56)
	if got := s.met.ingestBatch.Count() - holds; got != 1 {
		t.Fatalf("the 50 queued ops were applied in %d holds, want 1", got)
	}
	if got := compactions(s) - compacts; got < 2 {
		t.Fatalf("%d compactions inside the hold, want several", got)
	}
	check("after the hold")
	for i := 56; i < 60; i++ {
		op(i)
		s.Flush()
		check(fmt.Sprintf("after op %d", i))
	}

	live := get(t, s, "/jobs") + get(t, s, "/agents")
	rebooted, err := NewServerWith(opts) // s is abandoned without Shutdown: the files are what kill -9 leaves
	if err != nil {
		t.Fatal(err)
	}
	if got := get(t, rebooted, "/jobs") + get(t, rebooted, "/agents"); got != live {
		t.Errorf("rebooted server differs from the live one:\n got %s\nwant %s", got, live)
	}
}
