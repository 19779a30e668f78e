package lucidd

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// discardWriter is a ResponseWriter that keeps nothing: the list benchmarks
// measure what the server does to produce a body, not a recorder's appends.
type discardWriter struct {
	hdr  http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// poster is one benchmark client: a POST request and its body, reused for
// every request, so what a benchmark times is the server, not building
// requests (httptest.NewRequest parses a URL and allocates a reader per call).
type poster struct {
	req  http.Request
	url  url.URL
	hdr  http.Header
	body postBody
	w    discardWriter
}

type postBody struct{ strings.Reader }

func (*postBody) Close() error { return nil }

// post serves one POST of body to path and returns its status.
func (c *poster) post(s *Server, path, body string) int {
	if c.hdr == nil {
		c.hdr, c.w.hdr = http.Header{}, http.Header{}
	}
	c.url = url.URL{Path: path}
	c.body.Reset(body)
	c.req = http.Request{Method: http.MethodPost, URL: &c.url, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.hdr, Body: &c.body, ContentLength: int64(len(body)), Host: "lucidd"}
	s.ServeHTTP(&c.w, &c.req)
	return c.w.code
}

// benchListServer is the ctl_read working set without the disk: 16 shards,
// 4,096 jobs spread over 16 VCs, a third of them profiled.
func benchListServer(b *testing.B) *Server {
	b.Helper()
	s, err := NewServerWith(Options{Shards: 16})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	post := func(path, body string, want int) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != want {
			b.Fatalf("POST %s: %d: %s", path, rec.Code, rec.Body)
		}
	}
	gpus := []int{1, 1, 1, 2, 4, 8}
	for i := 0; i < 4096; i++ {
		post("/jobs", fmt.Sprintf(`{"name":"train-%03d","user":"user-%02d","vc":"vc-%d","gpus":%d,"amp":%v}`,
			rng.Intn(400), rng.Intn(64), rng.Intn(16), gpus[rng.Intn(len(gpus))], rng.Intn(2) == 0), http.StatusCreated)
	}
	for i := 0; i < 4096; i++ {
		post("/metrics", fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`,
			1+rng.Intn(1365), rng.Intn(101), 500+rng.Intn(30000), rng.Intn(101)), http.StatusAccepted)
	}
	s.Flush()
	return s
}

// benchList times GET target with 13 samples folded in before each read — the
// share of ctl_read's 64 writes per read that touch a job — so the lazy
// fragment re-encode is inside the measurement, not amortised away.
func benchList(b *testing.B, target string) {
	s := benchListServer(b)
	rng := rand.New(rand.NewSource(2))
	sample := func() {
		body := fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`,
			1+rng.Intn(4096), rng.Intn(101), 500+rng.Intn(30000), rng.Intn(101))
		w := &discardWriter{hdr: http.Header{}}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/metrics", strings.NewReader(body)))
		if w.code != http.StatusAccepted {
			b.Fatalf("sample: %d", w.code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, target, nil)
	w := &discardWriter{hdr: http.Header{}}
	s.ServeHTTP(w, req) // first read encodes every fragment once
	want := w.n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 13; k++ {
			sample()
		}
		s.Flush() // applied before the read, whose barrier then finds the queues empty
		w.n = 0
		b.StartTimer()
		s.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.code != http.StatusOK || w.n == 0 {
		b.Fatalf("GET %s: %d, %d bytes", target, w.code, w.n)
	}
	b.ReportMetric(float64(want), "body-bytes")
}

// BenchmarkGlobalSchedule is one cluster-wide GET /schedule over the ctl_read
// working set: 16 per-shard copy-outs, the K-way merge and the body write.
func BenchmarkGlobalSchedule(b *testing.B) { benchList(b, "/schedule") }

// BenchmarkScopedSchedule is GET /schedule?vc= for one tenant: one shard's
// copy-out filtered to a sixteenth of the jobs, no merge.
func BenchmarkScopedSchedule(b *testing.B) { benchList(b, "/schedule?vc=vc-3") }

// ingestOp is the i-th op of ctl_ingest's mix in miniature: four heartbeats to
// one sample, every 512th op a submission.
func ingestOp(rng *rand.Rand, i, jobs, agents, vcs int) (path, body string) {
	switch {
	case i%512 == 511:
		return "/jobs", fmt.Sprintf(`{"name":"burst-%d","user":"u","vc":"vc-%d","gpus":%d}`, i, rng.Intn(vcs), 1+rng.Intn(8))
	case i%5 == 4:
		return "/metrics", fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`,
			1+rng.Intn(jobs), rng.Intn(101), 500+rng.Intn(30000), rng.Intn(101))
	}
	a := rng.Intn(agents)
	return "/agents", fmt.Sprintf(`{"name":"agent-%05d","vc":"vc-%d","node":%d}`, a, a%vcs, a)
}

// preload fills a durable server with jobs and agents without paying an fsync
// per submission: the ops go through applyOpsLocked under the lock like any
// other, but nobody commits them — the benchmarks below do not crash.
func preload(b *testing.B, s *Server, jobs, agents, vcs int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	now := s.opts.clock()
	apply := func(op walOp) {
		sh := s.shardFor(op.VC)
		sh.mu.Lock()
		_, failed, _ := sh.applyOpsLocked([]walOp{op}, now, nil)
		sh.mu.Unlock()
		if failed != 0 {
			b.Fatal("preload: persist failed")
		}
	}
	for i := 0; i < jobs; i++ {
		apply(walOp{Op: "job", ID: int(s.nextID.Add(1)), Name: fmt.Sprintf("train-%03d", rng.Intn(400)),
			User: fmt.Sprintf("user-%02d", rng.Intn(64)), VC: fmt.Sprintf("vc-%d", rng.Intn(vcs)), GPUs: 1 + rng.Intn(8)})
	}
	for a := 0; a < agents; a++ {
		apply(walOp{Op: "agent", Name: fmt.Sprintf("agent-%05d", a), VC: fmt.Sprintf("vc-%d", a%vcs), Node: a, UnixNano: now.UnixNano()})
	}
}

// BenchmarkIngestBurst is ctl_ingest without the sockets: 16 shards, state dir
// and fsync on, async queue, two clients pushing 20,000 ops of the mix per
// iteration and one flush barrier at the end. fsyncs/op and compactions/op are
// the two rows the commit point and the compaction ratio move.
func BenchmarkIngestBurst(b *testing.B) {
	const jobs, agents, vcs, burst, clients = 1024, 8192, 16, 20000, 2
	s, err := NewServerWith(Options{Shards: 16, IngestQueue: 4096, StateDir: b.TempDir(), AgentStaleAfter: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	preload(b, s, jobs, agents, vcs)
	s.Flush()
	fsyncs, compacts := s.met.walFsync.Count(), compactions(s)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(n*clients + c)))
				var cl poster
				for i := c; i < burst; i += clients {
					path, body := ingestOp(rng, i, jobs, agents, vcs)
					code := cl.post(s, path, body)
					for ; code == http.StatusTooManyRequests; code = cl.post(s, path, body) {
						runtime.Gosched() // backpressure: resend, like the bench client
					}
					if code != http.StatusAccepted && code != http.StatusCreated {
						b.Errorf("POST %s: %d", path, code)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		s.Flush()
	}
	b.StopTimer()
	ops := float64(b.N * burst)
	b.ReportMetric(float64(s.met.walFsync.Count()-fsyncs)/ops, "fsyncs/op")
	b.ReportMetric(float64(compactions(s)-compacts)/ops, "compactions/op")
	b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkSubmitAfterTelemetry is the sync side of the write path: one client
// of a durable 16-shard async server posts k heartbeats, then one submission,
// 64 times an iteration, and the submission's p50 and p90 are reported. The
// submission is applied and fsynced on its handler's goroutine while the
// drainers apply the heartbeats; handing it to a per-shard applier goroutine
// instead is what this row ruled out (DESIGN.md §3j).
func BenchmarkSubmitAfterTelemetry(b *testing.B) {
	const jobs, agents, vcs, rounds = 1024, 8192, 16, 64
	beats := make([]string, agents)
	for a := range beats {
		beats[a] = fmt.Sprintf(`{"name":"agent-%05d","vc":"vc-%d","node":%d}`, a, a%vcs, a)
	}
	for _, k := range []int{0, 32, 511} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s, err := NewServerWith(Options{Shards: 16, IngestQueue: 4096, StateDir: b.TempDir(), AgentStaleAfter: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			preload(b, s, jobs, agents, vcs)
			s.Flush()
			rng := rand.New(rand.NewSource(1))
			w := &discardWriter{hdr: http.Header{}}
			post := func(path, body string, want int) time.Duration {
				for {
					start := time.Now()
					s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
					d := time.Since(start)
					if w.code == want {
						return d
					}
					if w.code != http.StatusTooManyRequests {
						b.Fatalf("POST %s: %d", path, w.code)
					}
					runtime.Gosched() // backpressure: resend, like the bench client
				}
			}
			lat := make([]time.Duration, 0, b.N*rounds)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for r := 0; r < rounds; r++ {
					for i := 0; i < k; i++ {
						post("/agents", beats[rng.Intn(agents)], http.StatusAccepted)
					}
					lat = append(lat, post("/jobs", fmt.Sprintf(`{"name":"train-%03d","user":"u","vc":"vc-%d","gpus":%d}`,
						rng.Intn(400), rng.Intn(vcs), 1+rng.Intn(8)), http.StatusCreated))
				}
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2])/1e3, "submit-p50-µs")
			b.ReportMetric(float64(lat[len(lat)*9/10])/1e3, "submit-p90-µs")
		})
	}
}

// BenchmarkRecoverWorstCase boots from the longest log the compaction rule
// allows on the ctl_ingest working set (4,096 jobs and 32,768 agents over 16
// shards): every shard holds a snapshot of its share and a WAL one record short
// of compactRatio × that snapshot. This is the recovery bound DESIGN.md §3j
// states: replay of at most compactRatio × snapshot + floor.
func BenchmarkRecoverWorstCase(b *testing.B) {
	const jobs, agents, vcs = 4096, 32768, 16
	dir := b.TempDir()
	opts := Options{Shards: 16, StateDir: dir, AgentStaleAfter: time.Hour}
	s, err := NewServerWith(opts)
	if err != nil {
		b.Fatal(err)
	}
	preload(b, s, jobs, agents, vcs)
	now := s.opts.clock()
	var records, walBytes, snapBytes int64
	for _, sh := range s.shards {
		if sh.nAgents.Load() == 0 {
			continue // 16 VCs hash onto fewer than 16 shards: nothing to recover here
		}
		sh.mu.Lock()
		if err := sh.compactLocked(); err != nil {
			b.Fatal(err)
		}
		snapshots := sh.store.compactions
		// Heartbeats from the shard's own agents, each the size of the last,
		// until one more would trip the rule.
		for i, size := 0, int64(0); sh.wal.Records()+1 < sh.store.compactEvery || sh.wal.Bytes()+size < compactRatio*sh.store.snapBytes; i++ {
			a := sh.aorder[i%len(sh.aorder)]
			before := sh.wal.Bytes()
			sh.applyOpsLocked([]walOp{{Op: "agent", Name: a.Name, VC: a.VC, Node: a.Node, UnixNano: now.UnixNano()}}, now, nil)
			size = sh.wal.Bytes() - before
		}
		if sh.store.compactions != snapshots {
			b.Fatalf("shard %d compacted while its log was being filled", sh.idx)
		}
		records, walBytes, snapBytes = records+sh.wal.Records(), walBytes+sh.wal.Bytes(), snapBytes+sh.store.snapBytes
		sh.mu.Unlock()
		if err := sh.wal.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r, err := NewServerWith(opts) // s is abandoned, like a killed process
		if err != nil {
			b.Fatal(err)
		}
		if got, _, fromSnap := r.Recovery(); int64(got) != records || !fromSnap {
			b.Fatalf("boot replayed %d records (snapshot %v), want %d on top of snapshots", got, fromSnap, records)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(records), "records")
	b.ReportMetric(float64(walBytes)/1e6, "wal-MB")
	b.ReportMetric(float64(snapBytes)/1e6, "snapshot-MB")
	b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N)/float64(records), "µs/record")
}
