package lucidd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newTestServer shares one trained server across tests (training is the
// slow part).
var (
	once    sync.Once
	shared  *Server
	initErr error
)

func testServer(t *testing.T) *Server {
	t.Helper()
	once.Do(func() { shared, initErr = NewServer() })
	if initErr != nil {
		t.Fatal(initErr)
	}
	return shared
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewBufferString(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestJobRegistration(t *testing.T) {
	s := testServer(t)
	rec := do(t, s, http.MethodPost, "/jobs", `{"name":"train-v1","user":"alice","vc":"vc0","gpus":2}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var js jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	if js.ID == 0 || js.Score != "Jumbo" {
		t.Fatalf("new job should be conservatively Jumbo: %+v", js)
	}
	if js.EstSec <= 0 {
		t.Fatalf("estimate missing: %+v", js)
	}
}

func TestJobValidation(t *testing.T) {
	s := testServer(t)
	if rec := do(t, s, http.MethodPost, "/jobs", `{"name":"","gpus":0}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty job accepted: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/jobs", `not-json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage accepted: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/jobs", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE allowed: %d", rec.Code)
	}
}

func TestMetricsIngestionFlipsScore(t *testing.T) {
	s := testServer(t)
	rec := do(t, s, http.MethodPost, "/jobs", `{"name":"ppo-run","user":"bob","vc":"vc0","gpus":1}`)
	var js jobState
	json.Unmarshal(rec.Body.Bytes(), &js)

	// Three PPO-like samples (near idle): score must become Tiny.
	for i := 0; i < 3; i++ {
		rec = do(t, s, http.MethodPost, "/metrics",
			`{"job":`+itoa(js.ID)+`,"gpu_util":11,"gpu_mem_mb":1200,"gpu_mem_util":7}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics rejected: %d %s", rec.Code, rec.Body)
		}
	}
	var updated jobState
	json.Unmarshal(rec.Body.Bytes(), &updated)
	if updated.Samples != 3 {
		t.Fatalf("samples = %d", updated.Samples)
	}
	if updated.Score != "Tiny" {
		t.Fatalf("near-idle job scored %q, want Tiny", updated.Score)
	}
}

func TestMetricsUnknownJob(t *testing.T) {
	s := testServer(t)
	rec := do(t, s, http.MethodPost, "/metrics", `{"job":99999,"gpu_util":50}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job accepted: %d", rec.Code)
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := testServer(t)
	rec := do(t, s, http.MethodGet, "/schedule", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule status %d", rec.Code)
	}
	var jobs []jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &jobs); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(jobs); i++ {
		pi := float64(jobs[i-1].GPUs) * jobs[i-1].EstSec
		pj := float64(jobs[i].GPUs) * jobs[i].EstSec
		if pi > pj {
			t.Fatalf("schedule not priority-ordered at %d: %v > %v", i, pi, pj)
		}
	}
}

func TestPackingModelEndpoint(t *testing.T) {
	s := testServer(t)
	rec := do(t, s, http.MethodGet, "/models/packing", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "GPU Utilization") || !strings.Contains(body, "importance") {
		t.Fatalf("model rendering missing content:\n%s", body)
	}
	if rec := do(t, s, http.MethodPost, "/models/packing", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /models/packing: status %d, want 405", rec.Code)
	}
}

func TestTraceEndpoint(t *testing.T) {
	s := testServer(t)
	// Make sure at least one decision exists: register a job and take a
	// schedule snapshot.
	do(t, s, http.MethodPost, "/jobs", `{"name":"traced","user":"eve","vc":"vc1","gpus":1}`)
	do(t, s, http.MethodGet, "/schedule", "")

	rec := do(t, s, http.MethodGet, "/trace", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace status %d", rec.Code)
	}
	var out struct {
		Digest  string `json:"digest"`
		Count   int64  `json:"count"`
		Summary struct {
			Actions map[string]int64 `json:"actions"`
		} `json:"summary"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Digest) != 16 || out.Count == 0 || len(out.Events) == 0 {
		t.Fatalf("trace payload: digest=%q count=%d events=%d", out.Digest, out.Count, len(out.Events))
	}
	if out.Summary.Actions["release"] == 0 {
		t.Fatalf("no registration decisions recorded: %v", out.Summary.Actions)
	}
	if out.Summary.Actions["order"] == 0 {
		t.Fatalf("no ordering decisions recorded: %v", out.Summary.Actions)
	}

	// JSONL form: one valid JSON object per line.
	rec = do(t, s, http.MethodGet, "/trace?format=jsonl", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("jsonl status %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("empty jsonl trace")
	}
	for i, ln := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v: %q", i+1, err, ln)
		}
	}

	if rec := do(t, s, http.MethodPost, "/trace", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /trace allowed: %d", rec.Code)
	}
}

// TestConcurrentRequests hammers every endpoint from parallel goroutines —
// meaningful under `go test -race`, where it catches any unsynchronized
// access to the job table or the flight recorder.
func TestConcurrentRequests(t *testing.T) {
	s := testServer(t)
	rec := do(t, s, http.MethodPost, "/jobs", `{"name":"racer","user":"r","vc":"vc0","gpus":1}`)
	var js jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (g + i) % 4 {
				case 0:
					do(t, s, http.MethodPost, "/jobs", `{"name":"race-burst","user":"r","vc":"vc0","gpus":2}`)
				case 1:
					do(t, s, http.MethodPost, "/metrics",
						`{"job":`+itoa(js.ID)+`,"gpu_util":40,"gpu_mem_mb":3000,"gpu_mem_util":12}`)
				case 2:
					do(t, s, http.MethodGet, "/schedule", "")
				case 3:
					do(t, s, http.MethodGet, "/trace", "")
				}
			}
		}(g)
	}
	wg.Wait()

	if rec := do(t, s, http.MethodGet, "/trace", ""); rec.Code != http.StatusOK {
		t.Fatalf("trace after hammering: %d", rec.Code)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
