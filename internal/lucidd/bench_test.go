package lucidd

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
			1+rng.Intn(1365), rng.Intn(101), 500+rng.Intn(30000), rng.Intn(101)), http.StatusOK)
	}
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
		if w.code != http.StatusOK {
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
