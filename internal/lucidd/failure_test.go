package lucidd

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable, manually-advanced clock for staleness tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// newHardenedServer builds a private server instance (training is shared
// process-wide, so this is cheap after the first test).
func newHardenedServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := NewServerWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOversizedPayloadRejected(t *testing.T) {
	s := newHardenedServer(t, Options{MaxBodyBytes: 256})
	big := `{"name":"` + strings.Repeat("a", 1024) + `","gpus":1}`
	if rec := do(t, s, http.MethodPost, "/jobs", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	// A body under the cap still works.
	if rec := do(t, s, http.MethodPost, "/jobs", `{"name":"ok","gpus":1}`); rec.Code != http.StatusCreated {
		t.Fatalf("normal body after cap: status %d: %s", rec.Code, rec.Body)
	}
}

func TestMalformedBodiesRejected(t *testing.T) {
	s := newHardenedServer(t, Options{EnableChaos: true})
	for _, c := range []struct{ path, body string }{
		{"/jobs", `{"name":`},
		{"/metrics", `not-json`},
		{"/agents", `[1,2,3`},
		{"/chaos", `{{`},
	} {
		if rec := do(t, s, http.MethodPost, c.path, c.body); rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s with %q: status %d, want 400", c.path, c.body, rec.Code)
		}
	}
}

func TestAgentHeartbeatAndStaleEviction(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	s := newHardenedServer(t, Options{AgentStaleAfter: 60 * time.Second, clock: clk.Now})

	for _, body := range []string{
		`{"name":"agent-0","node":0}`,
		`{"name":"agent-1","node":1}`,
	} {
		if rec := do(t, s, http.MethodPost, "/agents", body); rec.Code != http.StatusAccepted {
			t.Fatalf("register: status %d: %s", rec.Code, rec.Body)
		}
	}
	if rec := do(t, s, http.MethodPost, "/agents", `{"name":"","node":0}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("nameless agent accepted: %d", rec.Code)
	}

	list := func() []agentState {
		rec := do(t, s, http.MethodGet, "/agents", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("list agents: %d", rec.Code)
		}
		var out []agentState
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := list(); len(got) != 2 {
		t.Fatalf("agents = %d, want 2", len(got))
	}

	// 45s in, agent-1 heartbeats; agent-0 stays silent. At 45+40s agent-0 is
	// 85s stale (evicted) while agent-1 is only 40s stale (alive).
	clk.Advance(45 * time.Second)
	if rec := do(t, s, http.MethodPost, "/agents", `{"name":"agent-1","node":1}`); rec.Code != http.StatusAccepted {
		t.Fatalf("heartbeat: %d", rec.Code)
	}
	clk.Advance(40 * time.Second)
	got := list()
	if len(got) != 1 || got[0].Name != "agent-1" {
		t.Fatalf("after staleness sweep: %+v, want only agent-1", got)
	}

	// The eviction is recorded as a presumed node failure.
	rec := do(t, s, http.MethodGet, "/trace", "")
	var tr struct {
		Summary struct {
			Actions map[string]int64 `json:"actions"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Summary.Actions["node-fail"] == 0 {
		t.Fatalf("stale eviction not traced: %v", tr.Summary.Actions)
	}
	// A returning agent re-registers cleanly.
	if rec := do(t, s, http.MethodPost, "/agents", `{"name":"agent-0","node":0}`); rec.Code != http.StatusAccepted {
		t.Fatalf("re-register after eviction: %d", rec.Code)
	}
	if got := list(); len(got) != 2 {
		t.Fatalf("agents after return = %d, want 2", len(got))
	}
}

func TestChaosEndpointGatedByOption(t *testing.T) {
	s := newHardenedServer(t, Options{}) // chaos off
	if rec := do(t, s, http.MethodPost, "/chaos", `{"action":"delay","delay_ms":1}`); rec.Code != http.StatusNotFound {
		t.Fatalf("/chaos mounted without EnableChaos: %d", rec.Code)
	}
}

func TestChaosFailJobResetsProfile(t *testing.T) {
	s := newHardenedServer(t, Options{EnableChaos: true})
	rec := do(t, s, http.MethodPost, "/jobs", `{"name":"victim","user":"v","vc":"vc0","gpus":1}`)
	var js jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	profileTiny := func() jobState {
		for i := 0; i < minSamples; i++ {
			rec := do(t, s, http.MethodPost, "/metrics",
				`{"job":`+itoa(js.ID)+`,"gpu_util":11,"gpu_mem_mb":1200,"gpu_mem_util":7}`)
			if rec.Code != http.StatusAccepted {
				t.Fatalf("metrics: %d %s", rec.Code, rec.Body)
			}
		}
		return jobOf(t, s, js.ID)
	}
	if got := profileTiny(); got.Score != "Tiny" {
		t.Fatalf("profiled score %q, want Tiny", got.Score)
	}

	rec = do(t, s, http.MethodPost, "/chaos", `{"action":"fail-job","job":`+itoa(js.ID)+`}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("fail-job: %d %s", rec.Code, rec.Body)
	}
	var killed jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &killed); err != nil {
		t.Fatal(err)
	}
	if killed.Restarts != 1 || killed.Samples != 0 || killed.Score != "Jumbo" {
		t.Fatalf("kill must void the profile back to the Jumbo prior: %+v", killed)
	}
	// Recovery: fresh samples rebuild the profile from scratch.
	if got := profileTiny(); got.Score != "Tiny" || got.Restarts != 1 {
		t.Fatalf("post-kill reprofiling: %+v", got)
	}

	if rec := do(t, s, http.MethodPost, "/chaos", `{"action":"fail-job","job":99999}`); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job killed: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/chaos", `{"action":"evict-agent","agent":"ghost"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown agent evicted: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/chaos", `{"action":"frobnicate"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown action accepted: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/chaos", `{"action":"delay","delay_ms":-5}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative delay accepted: %d", rec.Code)
	}
}

func TestChaosEvictAgent(t *testing.T) {
	s := newHardenedServer(t, Options{EnableChaos: true})
	do(t, s, http.MethodPost, "/agents", `{"name":"doomed","node":3}`)
	if rec := do(t, s, http.MethodPost, "/chaos", `{"action":"evict-agent","agent":"doomed"}`); rec.Code != http.StatusOK {
		t.Fatalf("evict: %d %s", rec.Code, rec.Body)
	}
	rec := do(t, s, http.MethodGet, "/agents", "")
	var out []agentState
	json.Unmarshal(rec.Body.Bytes(), &out)
	if len(out) != 0 {
		t.Fatalf("agent survived eviction: %+v", out)
	}
}

// TestGracefulShutdownDrains: a request in flight when Shutdown begins runs
// to completion while new requests are refused with 503.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newHardenedServer(t, Options{EnableChaos: true})
	// Hold every request for 50ms so "in flight" is a concrete window.
	if rec := do(t, s, http.MethodPost, "/chaos", `{"action":"delay","delay_ms":50}`); rec.Code != http.StatusOK {
		t.Fatalf("arming delay: %d", rec.Code)
	}

	inflightDone := make(chan int, 1)
	go func() {
		rec := do(t, s, http.MethodGet, "/schedule", "")
		inflightDone <- rec.Code
	}()
	// Wait until the request is actually inside ServeHTTP.
	deadline := time.Now().Add(2 * time.Second)
	for s.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if code := <-inflightDone; code != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", code)
	}
	if rec := do(t, s, http.MethodGet, "/schedule", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request got %d, want 503", rec.Code)
	}
}

// TestConcurrentChaosAndSchedule interleaves /chaos kills with /schedule,
// /metrics and /agents traffic — meaningful under -race, where it catches
// unsynchronized access to the job table, agent table or chaos knobs.
func TestConcurrentChaosAndSchedule(t *testing.T) {
	s := newHardenedServer(t, Options{EnableChaos: true})
	rec := do(t, s, http.MethodPost, "/jobs", `{"name":"chaos-racer","user":"r","vc":"vc0","gpus":1}`)
	var js jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	do(t, s, http.MethodPost, "/agents", `{"name":"agent-r","node":0}`)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (g + i) % 4 {
				case 0:
					do(t, s, http.MethodPost, "/chaos", `{"action":"fail-job","job":`+itoa(js.ID)+`}`)
				case 1:
					do(t, s, http.MethodPost, "/metrics",
						`{"job":`+itoa(js.ID)+`,"gpu_util":40,"gpu_mem_mb":3000,"gpu_mem_util":12}`)
				case 2:
					do(t, s, http.MethodGet, "/schedule", "")
				case 3:
					do(t, s, http.MethodPost, "/agents", `{"name":"agent-r","node":0}`)
				}
			}
		}(g)
	}
	wg.Wait()

	rec = do(t, s, http.MethodGet, "/schedule", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule after chaos hammering: %d", rec.Code)
	}
	var out []jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Restarts == 0 {
		t.Fatalf("job table corrupted under chaos: %+v", out)
	}
}
