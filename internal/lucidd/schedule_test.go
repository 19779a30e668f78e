package lucidd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/dtrace"
)

// oracleGlobalSchedule is the cluster-wide GET /schedule this package served
// before the body was kept between reads: every shard's fragments copied out
// with copyJobFrags, K-way merged with mergeSorted and streamed by
// writeJSONRefs, and the ActOrder event built from the merged slice. It
// records nothing and leaves the shards' touched records alone.
func oracleGlobalSchedule(s *Server) (string, dtrace.Event, error) {
	views := make([][]*jobFrag, len(s.shards))
	for i, sh := range s.shards {
		var err error
		if views[i], err = sh.copyJobFrags(""); err != nil {
			return "", dtrace.Event{}, err
		}
	}
	out := mergeSorted(views, func(a, b *jobFrag) int { return a.key.Compare(b.key) })
	rec := httptest.NewRecorder()
	writeJSONRefs(rec, out)
	var ev dtrace.Event
	if len(out) > 0 {
		head := out[0]
		ev = dtrace.Event{Job: head.key.ID, Action: dtrace.ActOrder,
			Reason: "min-gpu-demand-x-estimate", VC: head.vc, GPUs: head.gpus,
			Score: head.key.Prio}
		for _, f := range out[1:] {
			if len(ev.Alternatives) >= s.rec.TopK() {
				break
			}
			ev.Alternatives = append(ev.Alternatives, dtrace.Alternative{
				Job: f.key.ID, Score: f.key.Prio, Reason: "behind-in-queue"})
		}
	}
	return rec.Body.String(), ev, nil
}

// lastOrderEvent is the newest ActOrder event recorded. A drainer that ran
// beside a read's flush may record its own events after the read's.
func lastOrderEvent(s *Server) (dtrace.Event, bool) {
	evs := s.rec.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Action == dtrace.ActOrder {
			return evs[i], true
		}
	}
	return dtrace.Event{}, false
}

// checkGlobalSchedule serves one GET /schedule and requires the status, the
// body and the recorded ActOrder event the oracle gives for the same state: a
// 500 naming the job when the oracle cannot encode one.
func checkGlobalSchedule(t *testing.T, s *Server, when string) {
	t.Helper()
	rec := do(t, s, http.MethodGet, "/schedule", "")
	want, wantEv, err := oracleGlobalSchedule(s)
	if err != nil {
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), err.Error()) {
			t.Fatalf("%s: GET /schedule: %d %q, the oracle fails with %v", when, rec.Code, rec.Body, err)
		}
		return
	}
	if got := rec.Body.String(); rec.Code != http.StatusOK || got != want {
		t.Fatalf("%s: GET /schedule: %d, differs from the oracle:\n got %s\nwant %s", when, rec.Code, got, want)
	}
	if wantEv.Action == "" {
		return
	}
	ev, _ := lastOrderEvent(s)
	wantEv.Seq = ev.Seq
	if !reflect.DeepEqual(ev, wantEv) {
		t.Fatalf("%s: GET /schedule recorded %+v, the oracle %+v", when, ev, wantEv)
	}
}

// touchProfile sets a job's sample count and profile means under its shard's
// lock, as plantProfile does, and records the change as a mutation would.
func touchProfile(s *Server, id, samples int, p profile) {
	plantProfile(s, id, samples, p)
	sh, _ := s.shardOfJob(id)
	sh.mu.Lock()
	sh.touchLocked(id)
	sh.mu.Unlock()
}

func composeCount(s *Server, kind string) int {
	return int(s.met.schedCompose.With(kind).Value())
}

// TestGlobalScheduleMatchesOracle is the cached body's differential contract:
// a randomized stream of every op that changes a job — submissions (hostile
// strings included), samples, chaos kills, withdrawals after a failed commit
// and of listed jobs, kill-and-replay and snapshot-load reboots, an
// unencodable profile — with a global read after every 0–300 ops, at 1 and 16
// shards, sync and async. Every global body and ActOrder event must equal the
// oracle's, and both the patch and the rebuild must have run.
func TestGlobalScheduleMatchesOracle(t *testing.T) {
	for _, v := range []struct {
		shards int
		async  bool
	}{{1, false}, {16, false}, {1, true}, {16, true}} {
		t.Run(fmt.Sprintf("%d-shards-async-%v", v.shards, v.async), func(t *testing.T) {
			dir := t.TempDir()
			// failSync makes every fsync fail; between is the read a failing
			// commit runs outside the shard mutex, before the withdrawal.
			var failSync atomic.Bool
			var between func()
			fs := &faultFS{fail: func(op string) error {
				if op != "sync" || !failSync.Load() {
					return nil
				}
				if between != nil {
					between()
				}
				return syscall.EIO
			}}
			open := func() *Server {
				opts := Options{Shards: v.shards, EnableChaos: true, clock: parityClock(),
					StateDir: dir, compactEvery: 64, fs: fs}
				if v.async {
					opts.IngestQueue = 4096
				}
				s, err := NewServerWith(opts)
				if err != nil {
					t.Fatal(err)
				}
				s.rec.SetKeep(-1) // checkGlobalSchedule needs every ActOrder
				return s
			}
			s := open()
			patches, rebuilds := 0, 0
			spent := func() {
				patches += composeCount(s, "patch")
				rebuilds += composeCount(s, "rebuild")
			}
			rng := rand.New(rand.NewSource(int64(40 + v.shards)))
			vcs := []string{`vc "quoted" <x>`}
			for i := 0; i < 16; i++ {
				vcs = append(vcs, fmt.Sprintf("vc-%d", i))
			}
			var ids []int
			submit := func(i int) int {
				name, user := fmt.Sprintf("job-%d", i), fmt.Sprintf("u%d", rng.Intn(4))
				if rng.Intn(3) == 0 {
					name, user = hostileStrings[rng.Intn(len(hostileStrings))], hostileStrings[rng.Intn(len(hostileStrings))]
				}
				id, vc := int(s.nextID.Add(1)), vcs[rng.Intn(len(vcs))]
				if r := s.shardFor(vc).applyOne(walOp{Op: "job", ID: id, Name: name,
					User: user, VC: vc, GPUs: 1 + rng.Intn(8), AMP: rng.Intn(2) == 0}); r.err != nil {
					t.Fatal(r.err)
				}
				return id
			}
			for i := 0; i < 12*v.shards; i++ {
				ids = append(ids, submit(i))
			}
			withdrawn, betweenReads, failedReads, reboots := 0, 0, 0, 0
			gap := 0
			for i := 0; i < 1500; i++ {
				for ; gap == 0; gap = rng.Intn(301) {
					checkGlobalSchedule(t, s, fmt.Sprintf("op %d", i))
				}
				gap--
				id := ids[rng.Intn(len(ids))]
				switch roll := rng.Intn(100); {
				case roll < 8:
					ids = append(ids, submit(i))
				case roll < 70:
					body := fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`,
						id, rng.Intn(101), 500+rng.Intn(30000), rng.Intn(101))
					if rec := do(t, s, http.MethodPost, "/metrics", body); rec.Code >= 500 {
						t.Fatalf("sample: %d: %s", rec.Code, rec.Body)
					}
				case roll < 78:
					do(t, s, http.MethodPost, "/chaos", fmt.Sprintf(`{"action":"fail-job","job":%d}`, id))
				case roll < 81:
					// A listed job withdrawn: the op a failed commit applies.
					if sh, ok := s.shardOfJob(id); ok {
						sh.flush()
						sh.applyOne(walOp{Op: "abort-job", ID: id})
					}
				case roll < 83:
					// A submission whose fsync fails: answered 500 and
					// withdrawn. In sync mode a global read runs inside the
					// failing commit, after the unlock, so the job is listed
					// before it is withdrawn. (A flush there would wait for
					// the failing fsync itself.)
					s.Flush()
					if !v.async {
						between = func() {
							for _, sh := range s.shards {
								if !sh.mu.TryLock() {
									return // a compaction under the mutex
								}
								sh.mu.Unlock()
							}
							between = nil
							betweenReads++
							checkGlobalSchedule(t, s, fmt.Sprintf("op %d, inside a failing commit", i))
						}
					}
					failSync.Store(true)
					rec := do(t, s, http.MethodPost, "/jobs", `{"name":"doomed","user":"u","vc":"vc-3","gpus":2}`)
					failSync.Store(false)
					between = nil
					if rec.Code != http.StatusInternalServerError {
						t.Fatalf("submit with a failing fsync: %d: %s", rec.Code, rec.Body)
					}
					withdrawn++
				case roll < 86:
					path := "/schedule?vc=" + vcs[1+rng.Intn(len(vcs)-1)]
					if rng.Intn(2) == 0 {
						path = "/jobs"
					}
					get(t, s, path)
				case roll < 87:
					// Unencodable, then mended: the failed read spends the
					// shards' records, and the next read must still be right.
					s.Flush()
					sh, ok := s.shardOfJob(id)
					if !ok {
						break
					}
					sh.mu.Lock()
					js := *sh.jobs[id]
					sh.mu.Unlock()
					touchProfile(s, id, js.Samples, profile{GPUUtil: math.Inf(1)})
					if rec := do(t, s, http.MethodGet, "/schedule", ""); rec.Code != http.StatusInternalServerError {
						t.Fatalf("op %d: GET /schedule with a +Inf mean: %d", i, rec.Code)
					}
					failedReads++
					touchProfile(s, id, js.Samples, js.Profile)
					checkGlobalSchedule(t, s, fmt.Sprintf("op %d, after a failed read", i))
				case roll < 88 && reboots < 6:
					reboots++
					spent()
					if reboots%2 == 1 {
						s.Flush() // kill -9 analogue: the next incarnation replays the WALs
					} else {
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						err := s.Shutdown(ctx)
						cancel()
						if err != nil {
							t.Fatal(err)
						}
					}
					s = open()
					if n, _, fromSnap := s.Recovery(); reboots%2 == 0 && (n != 0 || !fromSnap) {
						t.Fatalf("reboot after a drain replayed %d records, snapshot %v", n, fromSnap)
					}
				}
			}
			checkGlobalSchedule(t, s, "end of stream")
			spent()
			t.Logf("%d patches, %d rebuilds, %d withdrawn submissions (%d read between), %d failed reads, %d reboots",
				patches, rebuilds, withdrawn, betweenReads, failedReads, reboots)
			if patches == 0 || rebuilds <= reboots || withdrawn == 0 || failedReads == 0 || reboots < 4 ||
				(!v.async && betweenReads == 0) {
				t.Error("the stream no longer exercises every path")
			}
		})
	}
}

// TestScheduleComposeCounts: at the ctl_read working set, with 13–40 samples
// before each global read, the first read rebuilds and every later one
// patches; a flood past half of one shard's jobs forces one more rebuild. The
// byte tests alone would pass a cache that always rebuilds.
func TestScheduleComposeCounts(t *testing.T) {
	s, err := NewServerWith(Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	s.rec.SetKeep(-1) // past 4,096 registrations, so checkGlobalSchedule sees every ActOrder
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		submitJob(t, s, fmt.Sprintf("train-%d", rng.Intn(400)), fmt.Sprintf("vc-%d", rng.Intn(16)), 1+rng.Intn(8))
	}
	sample := func(id int) {
		body := fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`,
			id, rng.Intn(101), 500+rng.Intn(30000), rng.Intn(101))
		if rec := do(t, s, http.MethodPost, "/metrics", body); rec.Code != http.StatusOK {
			t.Fatalf("sample: %d: %s", rec.Code, rec.Body)
		}
	}
	counts := func(when string, rebuilds, patches int) {
		t.Helper()
		if r, p := composeCount(s, "rebuild"), composeCount(s, "patch"); r != rebuilds || p != patches {
			t.Fatalf("%s: %d rebuilds and %d patches, want %d and %d", when, r, p, rebuilds, patches)
		}
	}
	checkGlobalSchedule(t, s, "first read")
	counts("first read", 1, 0)
	for r := 1; r <= 30; r++ {
		for k := 13 + rng.Intn(28); k > 0; k-- {
			sample(1 + rng.Intn(4096))
		}
		checkGlobalSchedule(t, s, fmt.Sprintf("read %d", r))
	}
	counts("30 reads later", 1, 30)

	flooded, _ := s.shardOfJob(1)
	for id, n := 1, 0; n <= int(flooded.nJobs.Load())/2; id++ {
		if sh, _ := s.shardOfJob(id); sh == flooded {
			sample(id)
			n++
		}
	}
	checkGlobalSchedule(t, s, "after the flood")
	counts("after the flood", 2, 30)
	sample(7)
	checkGlobalSchedule(t, s, "after the flood and one sample")
	counts("after the flood and one sample", 2, 31)
	scrape := get(t, s, "/metrics")
	for _, want := range []string{`lucidd_schedule_compose_total{kind="rebuild"} 2`, `lucidd_schedule_compose_total{kind="patch"} 31`} {
		if !strings.Contains(scrape, want+"\n") {
			t.Errorf("GET /metrics does not expose %s", want)
		}
	}
}

// TestSnapshotLoadMarksTheWholeShard: a snapshot replaces a shard's jobs
// without a mutation per job that went away, so loading one must make the
// next global read take the shard whole — here a shard whose cached jobs a
// snapshot empties, then refills.
func TestSnapshotLoadMarksTheWholeShard(t *testing.T) {
	s, err := NewServerWith(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		submitJob(t, s, fmt.Sprint("snap-", i), fmt.Sprint("vc-", i%4), 1+i%3)
	}
	checkGlobalSchedule(t, s, "before the loads")
	sh := s.shards[0]
	sh.mu.Lock()
	if len(sh.jobs) < 2 {
		t.Fatalf("shard 0 holds %d jobs: nothing for a snapshot to replace", len(sh.jobs))
	}
	var kept shardSnap
	for _, js := range sh.snapshotLocked()[1:] {
		kept.Jobs = append(kept.Jobs, persistedJob{ID: js.ID, Name: js.Name, User: js.User,
			VC: js.VC, GPUs: js.GPUs, Samples: 3, Profile: profile{GPUUtil: 10, GPUMemMB: 900, GPUMemUtil: 4}})
	}
	sh.loadSnapLocked(shardSnap{})
	sh.mu.Unlock()
	checkGlobalSchedule(t, s, "after loading an empty snapshot")
	sh.mu.Lock()
	sh.loadSnapLocked(kept)
	sh.mu.Unlock()
	checkGlobalSchedule(t, s, "after loading a snapshot of all but one job")
}

// blockingWriter copies the first half of its first Write, closes half, and
// waits for resume before copying the rest.
type blockingWriter struct {
	hdr          http.Header
	body         []byte
	half, resume chan struct{}
}

func (w *blockingWriter) Header() http.Header { return w.hdr }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	if w.half != nil {
		h := len(p) / 2
		w.body = append(w.body, p[:h]...)
		close(w.half)
		w.half = nil
		<-w.resume
		p = p[h:]
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestScheduleBodyOutlivesLaterReads: a global response stalled halfway
// through its body while later global reads compose theirs must still send the
// body it was handed — the cache reuses only buffers no response is writing.
// Run under -race.
func TestScheduleBodyOutlivesLaterReads(t *testing.T) {
	s, err := NewServerWith(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i := 0; i < 64; i++ {
		ids = append(ids, submitJob(t, s, fmt.Sprint("gen-", i), fmt.Sprint("vc-", i%6), 1+i%4))
	}
	checkGlobalSchedule(t, s, "first read")
	for _, id := range ids[:8] {
		postSample(t, s, id)
	}
	want, _, err := oracleGlobalSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	w := &blockingWriter{hdr: http.Header{}, half: make(chan struct{}), resume: make(chan struct{})}
	half, done := w.half, make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/schedule", nil))
	}()
	<-half
	for r := 0; r < 4; r++ {
		for _, id := range ids { // every fragment changes: each body differs throughout
			postSample(t, s, id)
		}
		checkGlobalSchedule(t, s, fmt.Sprintf("read %d behind the stalled one", r))
	}
	close(w.resume)
	<-done
	if got := string(w.body); got != want {
		t.Fatalf("the stalled response sent\n%s\nit was handed\n%s", got, want)
	}
}
