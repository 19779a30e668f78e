package lucidd

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dtrace"
	"repro/internal/workload"
)

// The job list read path this package served until fragments replaced it —
// copy every jobState under the shard lock, order the copies, reflect over them
// with encoding/json — kept here, and only here, as the oracle the fragment
// path must match byte for byte. It reads the structs, never a fragment, so a
// fragment that outlived a mutation shows as a difference.

func (sh *shard) oracleCopy(vc string) []*jobState {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]*jobState, 0, len(sh.order))
	for _, js := range sh.order {
		if vc != "" && js.VC != vc {
			continue
		}
		cp := *js
		out = append(out, &cp)
	}
	return out
}

// scheduleLess is /schedule's order written out by hand — GPUs × estimate,
// then ID — rather than read from core.Key, which the index, the merge and the
// simulator all share: a bug there moves every one of them together, and
// shows only against an order that does not share it.
func scheduleLess(a, b *jobState) bool {
	pa, pb := float64(a.GPUs)*a.EstSec, float64(b.GPUs)*b.EstSec
	if pa != pb {
		return pa < pb
	}
	return a.ID < b.ID
}

// oracleList gathers the copies a list read of vc covers and orders them with a
// full sort — by scheduleLess for /schedule, by ID for /jobs.
func oracleList(s *Server, vc string, less func(a, b *jobState) bool) []*jobState {
	out := make([]*jobState, 0)
	for _, sh := range s.readShards(vc) {
		sh.flush()
		out = append(out, sh.oracleCopy(vc)...)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func oracleBody(t *testing.T, out []*jobState) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// oracleOrderEvent is the ActOrder event the replaced handleSchedule built
// from its merged copies.
func oracleOrderEvent(s *Server, out []*jobState) dtrace.Event {
	head := out[0]
	ev := dtrace.Event{Job: head.ID, Action: dtrace.ActOrder,
		Reason: "min-gpu-demand-x-estimate", VC: head.VC, GPUs: head.GPUs,
		Score: float64(head.GPUs) * head.EstSec}
	for _, js := range out[1:] {
		if len(ev.Alternatives) >= s.rec.TopK() {
			break
		}
		ev.Alternatives = append(ev.Alternatives, dtrace.Alternative{
			Job: js.ID, Score: float64(js.GPUs) * js.EstSec, Reason: "behind-in-queue"})
	}
	return ev
}

func byID(a, b *jobState) bool { return a.ID < b.ID }

// checkListsAgainstOracle requires the four job list endpoints, global and
// scoped to vc, to answer exactly what the replaced encoder would, and the
// recorded ordering decision to be the one it would have recorded.
func checkListsAgainstOracle(t *testing.T, s *Server, vc, when string) {
	t.Helper()
	for _, scope := range []string{"", vc} {
		query := ""
		if scope != "" {
			query = "?vc=" + url.QueryEscape(scope)
		}
		if got, want := get(t, s, "/jobs"+query), oracleBody(t, oracleList(s, scope, byID)); got != want {
			t.Fatalf("%s: GET /jobs%s differs from the replaced encoder:\n got %s\nwant %s", when, query, got, want)
		}
		got := get(t, s, "/schedule"+query)
		queue := oracleList(s, scope, scheduleLess)
		if want := oracleBody(t, queue); got != want {
			t.Fatalf("%s: GET /schedule%s differs from the replaced encoder:\n got %s\nwant %s", when, query, got, want)
		}
		if len(queue) == 0 {
			continue
		}
		evs := s.rec.Events()
		last := evs[len(evs)-1]
		want := oracleOrderEvent(s, queue)
		want.Seq = last.Seq
		if !reflect.DeepEqual(last, want) {
			t.Fatalf("%s: GET /schedule%s recorded %+v, the replaced handler would have recorded %+v", when, query, last, want)
		}
	}
}

// hostileStrings are names, users and VCs chosen to hit every branch of
// encoding/json's string escaping: quotes, backslashes, the HTML-escaped set,
// control characters, U+2028/U+2029, non-ASCII, and invalid UTF-8 (which only
// a direct walOp can carry: the HTTP decoder replaces it on the way in).
var hostileStrings = []string{
	`say "hi"`, `back\slash\\`, `<script>&amp;</script>`, "tab\there\nnewline\x00nul\x1f",
	"line\u2028sep\u2029para", "日本語-ジョブ-ü-é", "bad\xff\xfeutf8\xc3", "\x7fdel and\u00a0nbsp", "",
}

// TestListBytesMatchReplacedEncoder is the fragment path's differential
// contract: a randomized stream of every op kind — submissions (hostile
// strings included), samples, heartbeats, chaos kills and evictions — with
// list reads interleaved so fragments exist to go stale, a kill-and-replay, and
// a drain-and-snapshot-load, at 1 and 8 shards. After every step the four
// list endpoints must equal the replaced encoder's output. Telemetry is always
// queued; the -async-true suffix keeps the cells' test IDs stable.
func TestListBytesMatchReplacedEncoder(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("%d-shards-async-true", shards), func(t *testing.T) {
			dir := t.TempDir()
			// snapshots counts the compactions of every incarnation, and
			// snapAndReplay the reopens that loaded a snapshot AND replayed a
			// log on top of it — the recovery shape the tiny floor is here for.
			snapshots, snapAndReplay := 0, 0
			open := func() *Server {
				// compactEvery 40 is the floor; past the first snapshot a shard
				// compacts again when its log is also twice that snapshot.
				s, err := NewServerWith(Options{Shards: shards, EnableChaos: true, clock: parityClock(),
					StateDir: dir, compactEvery: 40})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := open()
			if got := get(t, s, "/schedule") + get(t, s, "/jobs?vc=nobody"); got != "[]\n[]\n" {
				t.Fatalf("empty lists = %q, want [] and [] (never null)", got)
			}
			rng := rand.New(rand.NewSource(int64(20 + shards)))
			vcs := []string{"vc-0", "vc-1", "vc-2", "vc-3", `vc "quoted" <4>`}
			var ids []int

			// submit goes through the op the POST handler builds, so strings
			// the HTTP decoder would have sanitised reach the job table too.
			submit := func(name, user, vc string) int {
				id := int(s.nextID.Add(1))
				if r := s.shardFor(vc).applyOne(walOp{Op: "job", ID: id, Name: name, User: user,
					VC: vc, GPUs: 1 + rng.Intn(8), AMP: rng.Intn(2) == 0}); r.err != nil {
					t.Fatal(r.err)
				}
				return id
			}
			sample := func(id int, util, memMB, memUtil float64) {
				body := fmt.Sprintf(`{"job":%d,"gpu_util":%v,"gpu_mem_mb":%v,"gpu_mem_util":%v}`, id, util, memMB, memUtil)
				if rec := do(t, s, http.MethodPost, "/metrics", body); rec.Code != http.StatusAccepted {
					t.Fatalf("sample: %d: %s", rec.Code, rec.Body)
				}
			}

			// Two jobs whose profile means sit where float formatting changes
			// shape: exponent form below 1e-6 and from 1e21 up, and a negative
			// zero, which no sample reaches any more (plantProfile says why
			// it is still served). The random stream below leaves them alone.
			edge := submit("edge-floats", "u", "vc-0")
			sample(edge, 1e-7, 1e21, 0)
			negZero := submit("edge-negzero", "u", "vc-1")
			plantProfile(s, negZero, 2, profile{GPUUtil: math.Copysign(0, -1), GPUMemMB: 1, GPUMemUtil: 1})
			// Two adjacent jobs whose fragments each exceed writeJSONRefs' chunk:
			// every body below crosses chunk boundaries, once with nothing
			// buffered between two oversized elements.
			for i := 0; i < 2; i++ {
				if r := s.shardFor("vc-2").applyOne(walOp{Op: "job", ID: int(s.nextID.Add(1)),
					Name: strings.Repeat("giant<&>", listChunk/8+1), User: "u", VC: "vc-2", GPUs: 3}); r.err != nil {
					t.Fatal(r.err)
				}
			}
			body := get(t, s, "/jobs")
			for _, want := range []string{`"gpu_util":1e-7,"gpu_mem_mb":1e+21`, `"gpu_util":-0,`} {
				if !strings.Contains(body, want) {
					t.Fatalf("edge profile %s missing from %s", want, body)
				}
			}

			for i := 0; i < 320; i++ {
				vc := vcs[rng.Intn(len(vcs))]
				switch roll := rng.Intn(20); {
				case roll < 4:
					name, user := fmt.Sprintf("job-%d", i), fmt.Sprintf("u%d", rng.Intn(4))
					if rng.Intn(2) == 0 {
						name = hostileStrings[rng.Intn(len(hostileStrings))]
						user = hostileStrings[rng.Intn(len(hostileStrings))]
					}
					ids = append(ids, submit(name, user, vc))
				case roll < 10 && len(ids) > 0:
					sample(ids[rng.Intn(len(ids))], float64(rng.Intn(101)), float64(500+rng.Intn(30000)), float64(rng.Intn(101)))
				case roll < 12:
					a := rng.Intn(12)
					hb := fmt.Sprintf(`{"name":"agent-%d","vc":"vc-%d","node":%d}`, a, a%4, a)
					if rec := do(t, s, http.MethodPost, "/agents", hb); rec.Code != http.StatusAccepted {
						t.Fatalf("heartbeat: %d: %s", rec.Code, rec.Body)
					}
				case roll < 13:
					do(t, s, http.MethodPost, "/chaos", fmt.Sprintf(`{"action":"evict-agent","agent":"agent-%d"}`, rng.Intn(12)))
				case roll < 15 && len(ids) > 0:
					kill := fmt.Sprintf(`{"action":"fail-job","job":%d}`, ids[rng.Intn(len(ids))])
					if rec := do(t, s, http.MethodPost, "/chaos", kill); rec.Code != http.StatusOK {
						t.Fatalf("fail-job: %d: %s", rec.Code, rec.Body)
					}
				case roll < 19:
					checkListsAgainstOracle(t, s, vc, fmt.Sprintf("op %d", i))
				case i > 100:
					if rng.Intn(2) == 0 {
						// kill -9 analogue: flushed, then abandoned without a
						// final snapshot.
						s.Flush()
						snapshots += compactions(s)
						s = open()
						if n, _, fromSnap := s.Recovery(); n > 0 && fromSnap {
							snapAndReplay++
						}
						checkListsAgainstOracle(t, s, vc, fmt.Sprintf("op %d, after kill-and-replay", i))
					} else {
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						err := s.Shutdown(ctx)
						cancel()
						if err != nil {
							t.Fatal(err)
						}
						snapshots += compactions(s)
						s = open()
						if n, _, snap := s.Recovery(); n != 0 || !snap {
							t.Fatalf("reopen after a drain replayed %d records, snapshot %v", n, snap)
						}
						checkListsAgainstOracle(t, s, vc, fmt.Sprintf("op %d, after snapshot load", i))
					}
				}
			}
			for _, vc := range vcs {
				checkListsAgainstOracle(t, s, vc, "end of stream")
			}
			if len(ids) < 30 {
				t.Fatalf("degenerate stream: %d jobs", len(ids))
			}
			snapshots += compactions(s)
			t.Logf("%d compactions, %d reopens that were a snapshot load plus a replay", snapshots, snapAndReplay)
			if snapshots < shards || snapAndReplay == 0 {
				t.Errorf("%d compactions over %d shards and %d snapshot-plus-replay reopens: the stream no longer exercises compaction",
					snapshots, shards, snapAndReplay)
			}
		})
	}
}

// TestMergeSortedMatchesFullSort: the loser tree against a sort of the
// concatenation, over shard counts that are not powers of two, empty views and
// views of very different lengths.
func TestMergeSortedMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		views := make([][]int, rng.Intn(20))
		var want []int
		next := rng.Perm(600)
		for i := range views {
			if rng.Intn(4) == 0 {
				continue // an empty shard
			}
			n := rng.Intn(1 + len(next)/(len(views)-i))
			views[i] = append([]int(nil), next[:n]...)
			next = next[n:]
			sort.Ints(views[i])
			want = append(want, views[i]...)
		}
		sort.Ints(want)
		got := mergeSorted(views, cmp.Compare[int])
		if got == nil || len(got) != len(want) {
			t.Fatalf("trial %d: merged %d of %d elements (nil: %v)", trial, len(got), len(want), got == nil)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: merged[%d] = %d, want %d (views %v)", trial, i, got[i], want[i], views)
			}
		}
	}
}

// TestRetainedFragmentsUnderWriters is the race test for fragments a reader
// keeps past the shard unlock: writers post samples and kill jobs while
// readers loop on the global and scoped lists. Every body must parse, be in
// scheduleLess (resp. ID) order, and every element must be ONE version of its job:
// the samples are a constant, so samples, profile, score and estimate are all
// functions of the sample count alone — a fragment torn between two versions,
// or rewritten under a reader, breaks that (or trips -race).
func TestRetainedFragmentsUnderWriters(t *testing.T) {
	s, err := NewServerWith(Options{Shards: 4, EnableChaos: true, IngestQueue: 256})
	if err != nil {
		t.Fatal(err)
	}
	const nJobs = 24
	const sampleBody = `"gpu_util":40,"gpu_mem_mb":3000,"gpu_mem_util":12}`
	constProfile := profile{GPUUtil: 40, GPUMemMB: 3000, GPUMemUtil: 12}
	type version struct {
		score string
		est   float64
	}
	fresh, profiled := map[int]version{}, map[int]version{}
	for i := 0; i < nJobs; i++ {
		id := submitJob(t, s, fmt.Sprintf("race-%d", i%5), fmt.Sprintf("vc-%d", i%6), 1+i%4)
		js := jobOf(t, s, id)
		fresh[id] = version{js.Score, js.EstSec}
		for k := 0; k < minSamples; k++ {
			do(t, s, http.MethodPost, "/metrics", fmt.Sprintf(`{"job":%d,%s`, id, sampleBody))
		}
		js = jobOf(t, s, id)
		profiled[id] = version{js.Score, js.EstSec}
	}

	check := func(path string, body []byte) error {
		var list []jobState
		if err := json.Unmarshal(body, &list); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		for i, js := range list {
			want, wantProfile := fresh[js.ID], profile{}
			if js.Samples >= minSamples {
				want = profiled[js.ID]
			}
			if js.Samples > 0 {
				wantProfile = constProfile
			}
			if js.Score != want.score || js.EstSec != want.est || js.Profile != wantProfile {
				return fmt.Errorf("%s: job %d is no single version: samples %d, profile %+v, score %s, estimate %v",
					path, js.ID, js.Samples, js.Profile, js.Score, js.EstSec)
			}
			if i == 0 {
				continue
			}
			prev := &list[i-1]
			inOrder := prev.ID < js.ID
			if strings.HasPrefix(path, "/schedule") {
				inOrder = scheduleLess(prev, &list[i])
			}
			if !inOrder {
				return fmt.Errorf("%s: job %d listed before job %d", path, prev.ID, js.ID)
			}
		}
		return nil
	}

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				id := 1 + rng.Intn(nJobs)
				if rng.Intn(6) == 0 {
					do(t, s, http.MethodPost, "/chaos", fmt.Sprintf(`{"action":"fail-job","job":%d}`, id))
				} else {
					do(t, s, http.MethodPost, "/metrics", fmt.Sprintf(`{"job":%d,%s`, id, sampleBody))
				}
			}
		}(g)
	}
	paths := []string{"/schedule", "/jobs", "/schedule?vc=vc-1", "/jobs?vc=vc-4"}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(g+i)%len(paths)]
				rec := do(t, s, http.MethodGet, path, "")
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: %d", path, rec.Code)
					return
				}
				if err := check(path, rec.Body.Bytes()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, path := range paths {
		if err := check(path, []byte(get(t, s, path))); err != nil {
			t.Error(err)
		}
	}
}

// TestAckedThenDroppedSampleIsCounted: a sample for a job the shard does not
// hold (evicted between the 202 and the apply, or dropped by a snapshot before
// replay) changes nothing and is not logged; nobody is left to tell, so the
// drain must count it.
func TestAckedThenDroppedSampleIsCounted(t *testing.T) {
	s, err := NewServerWith(Options{StateDir: t.TempDir(), EnableChaos: true})
	if err != nil {
		t.Fatal(err)
	}
	submitJob(t, s, "kept", "vc-0", 2)
	sh := s.shards[0]
	before, records := get(t, s, "/jobs")+get(t, s, "/schedule"), sh.wal.Records()
	orphan := walOp{Op: "metrics", ID: 4242, GPUUtil: 50, GPUMemMB: 1000, GPUMemUtil: 10}

	// Through the queue, applied by a flush: appended behind enqueue's back,
	// so no drainer races the flush for the two ops.
	sh.queue = append(sh.queue, orphan, orphan)
	sh.drain(0)
	if got := s.met.ingestDropped.Value(); got != 2 {
		t.Errorf("lucidd_ingest_dropped_total = %v after a batch of two orphan samples, want 2", got)
	}
	if got := sh.wal.Records(); got != records {
		t.Errorf("WAL grew by %d records for ops that changed nothing", got-records)
	}
	if after := get(t, s, "/jobs") + get(t, s, "/schedule"); after != before {
		t.Errorf("listing changed:\n before %s\n after  %s", before, after)
	}
	var status struct {
		IngestDropped int64 `json:"ingest_dropped"`
	}
	if err := json.Unmarshal([]byte(get(t, s, "/statusz")), &status); err != nil {
		t.Fatal(err)
	}
	if status.IngestDropped != 2 {
		t.Errorf("/statusz ingest_dropped = %d, want 2", status.IngestDropped)
	}
	if scrape := get(t, s, "/metrics"); !strings.Contains(scrape, "lucidd_ingest_dropped_total 2\n") {
		t.Error("GET /metrics does not expose lucidd_ingest_dropped_total 2")
	}
}

// plantProfile sets a job's sample count and profile means under its shard's
// lock, for means that folding non-negative samples by increments never
// reaches but a list read must still serve: a -0 that a snapshot written by
// an older build stores verbatim, or a +Inf that replaying the negative
// samples of an older build's WAL folds to.
func plantProfile(s *Server, id, samples int, p profile) {
	sh, _ := s.shardOfJob(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	js := sh.jobs[id]
	js.Samples, js.Profile, js.frag = samples, p, nil
}

// TestUnencodableJobFailsTheListLoudly: a +Inf profile mean, which
// encoding/json refuses. The replaced path answered such a list with 200 and
// an empty body; the fragment path names the job.
func TestUnencodableJobFailsTheListLoudly(t *testing.T) {
	s, err := NewServerWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, s, "overflow", "vc-0", 1)
	plantProfile(s, id, 2, profile{GPUUtil: math.Inf(1)})
	for _, path := range []string{"/schedule", "/jobs", "/schedule?vc=vc-0", "/jobs?vc=vc-0"} {
		rec := do(t, s, http.MethodGet, path, "")
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), fmt.Sprintf("encode job %d", id)) {
			t.Errorf("GET %s with a +Inf profile mean: %d %q, want 500 naming the job", path, rec.Code, rec.Body)
		}
	}
}

// TestEqualSamplesListTheirProfile: a job sampled minSamples times with one
// profile lists exactly that profile, for every catalog configuration's — the
// mean of equal samples is the sample, bit for bit, so the estimate read from
// it is the one the simulator makes from the profile itself.
func TestEqualSamplesListTheirProfile(t *testing.T) {
	s, err := NewServerWith(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]profile{}
	for i, c := range workload.AllConfigs() {
		p := c.Profile()
		id := submitJob(t, s, fmt.Sprint("cfg-", i), fmt.Sprint("vc-", i%8), 1)
		body := fmt.Sprintf(`{"job":%d,"gpu_util":%v,"gpu_mem_mb":%v,"gpu_mem_util":%v}`, id, p.GPUUtil, p.GPUMemMB, p.GPUMemUtil)
		for k := 0; k < minSamples; k++ {
			if rec := do(t, s, http.MethodPost, "/metrics", body); rec.Code != http.StatusAccepted {
				t.Fatalf("sample: %d: %s", rec.Code, rec.Body)
			}
		}
		want[id] = profile{p.GPUUtil, p.GPUMemMB, p.GPUMemUtil}
	}
	var jobs []jobState
	if err := json.Unmarshal([]byte(get(t, s, "/jobs")), &jobs); err != nil {
		t.Fatal(err)
	}
	for _, js := range jobs {
		if js.Profile != want[js.ID] {
			t.Errorf("job %d: %d samples of %+v list %+v", js.ID, js.Samples, want[js.ID], js.Profile)
		}
	}
}

// TestHugeSamplesKeepListsEncodable: two MaxFloat64 samples average to
// MaxFloat64. A mean that overflowed to +Inf would fail every list read
// afterwards, since encoding/json refuses it.
func TestHugeSamplesKeepListsEncodable(t *testing.T) {
	s, err := NewServerWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, s, "huge", "vc-0", 1)
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"job":%d,"gpu_util":%v,"gpu_mem_mb":%v}`, id, math.MaxFloat64, math.MaxFloat64)
		if rec := do(t, s, http.MethodPost, "/metrics", body); rec.Code != http.StatusAccepted {
			t.Fatalf("sample: %d: %s", rec.Code, rec.Body)
		}
	}
	for _, path := range []string{"/jobs", "/schedule"} {
		var jobs []jobState
		if err := json.Unmarshal([]byte(get(t, s, path)), &jobs); err != nil {
			t.Fatal(err)
		}
		if p := jobs[0].Profile; p.GPUUtil != math.MaxFloat64 || p.GPUMemMB != math.MaxFloat64 {
			t.Errorf("GET %s: profile %+v, want both means MaxFloat64", path, p)
		}
	}
}

// TestNegativeSampleIsRejected: utilization and memory are never negative. A
// sample that says otherwise gets 400, never a queue slot, and changes nothing.
func TestNegativeSampleIsRejected(t *testing.T) {
	s, err := NewServerWith(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, s, "negative", "vc-0", 1)
	for _, field := range []string{"gpu_util", "gpu_mem_mb", "gpu_mem_util"} {
		body := fmt.Sprintf(`{"job":%d,%q:-1}`, id, field)
		if rec := do(t, s, http.MethodPost, "/metrics", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s -1: %d, want 400", field, rec.Code)
		}
	}
	if got := samplesOf(t, s, id); got != 0 {
		t.Errorf("%d samples applied after three rejected ones", got)
	}
}
