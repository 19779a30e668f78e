package lucidd

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestMetricsScrapeRoundTrip drives a scripted submit → sample → schedule
// sequence against a durable server, then scrapes GET /metrics and checks
// the Prometheus text covers the instrumented layers: per-endpoint request
// latency and status codes, the two halves of a list read (barrier wait,
// compose), how a global /schedule was composed, WAL append+fsync latency, and
// the population gauges.
func TestMetricsScrapeRoundTrip(t *testing.T) {
	s, err := NewServerWith(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/jobs",
		`{"name":"train-v1","user":"alice","vc":"vc0","gpus":2}`); rec.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	for i := 0; i < 3; i++ {
		postApplied(t, s, "/metrics", `{"job":1,"gpu_util":55,"gpu_mem_mb":2600,"gpu_mem_util":38}`)
	}
	postApplied(t, s, "/agents", `{"name":"agent-0","node":0}`)
	// One deliberate 404 to check error codes are counted too.
	if rec := do(t, s, http.MethodPost, "/metrics", `{"job":99}`); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", rec.Code)
	}
	scrape := func() string {
		t.Helper()
		rec := do(t, s, http.MethodGet, "/metrics", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("scrape: %d %s", rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != metrics.TextContentType {
			t.Fatalf("content type = %q", ct)
		}
		return rec.Body.String()
	}
	// Before any read flushes the queue: 3 samples + heartbeat wait behind the
	// submission's fsync. Submit + 3 samples + heartbeat + failed-sample-404
	// (not logged) = 5 appends; the submission's commit is the one fsync
	// anybody waited for.
	if want := "lucidd_wal_unsynced_records 4\n"; !strings.Contains(scrape(), want) {
		t.Errorf("exposition missing %q", want)
	}
	appends := s.met.walAppend.Count()
	if appends != 5 {
		t.Errorf("wal append observations = %d, want 5", appends)
	}
	if got := s.met.walFsync.Count(); got != 1 {
		t.Errorf("%d wal fsyncs observed, want 1: the job submission's", got)
	}

	if rec := do(t, s, http.MethodGet, "/schedule", ""); rec.Code != http.StatusOK {
		t.Fatalf("schedule: %d %s", rec.Code, rec.Body)
	}
	out := scrape()
	for _, want := range []string{
		"# TYPE lucidd_http_requests_total counter",
		`lucidd_http_requests_total{path="/jobs",method="POST",code="201"} 1`,
		`lucidd_http_requests_total{path="/metrics",method="POST",code="202"} 3`,
		`lucidd_http_requests_total{path="/metrics",method="POST",code="404"} 1`,
		`lucidd_http_requests_total{path="/schedule",method="GET",code="200"} 1`,
		`lucidd_http_request_seconds_bucket{path="/jobs",le="+Inf"} 1`,
		"# TYPE lucidd_wal_append_seconds histogram",
		"# TYPE lucidd_wal_fsync_seconds histogram",
		"# TYPE lucidd_read_barrier_seconds histogram",
		`lucidd_read_barrier_seconds_count{path="/schedule"} 1`,
		"# TYPE lucidd_read_compose_seconds histogram",
		`lucidd_read_compose_seconds_bucket{path="/schedule",le="+Inf"} 1`,
		"# TYPE lucidd_schedule_compose_total counter",
		`lucidd_schedule_compose_total{kind="rebuild"} 1`, // the first global read
		"lucidd_ingest_dropped_total 0",
		"# TYPE lucidd_wal_unsynced_records gauge",
		"lucidd_wal_unsynced_records 0", // the read's barrier fsynced the telemetry tail
		`lucidd_ingest_queue_depth{shard="0"} 0`,
		"lucidd_queue_depth 1",
		"lucidd_jobs_profiled 1",
		"lucidd_agents 1",
		"lucidd_recovered_wal_records 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsPathLabelBounded collapses unknown paths into "other" so
// scanners cannot explode the label cardinality.
func TestMetricsPathLabelBounded(t *testing.T) {
	s := testServer(t)
	do(t, s, http.MethodGet, "/favicon.ico", "")
	do(t, s, http.MethodGet, "/secret/../../etc/passwd", "")
	out := s.met.reg.Render()
	if !strings.Contains(out, `path="other"`) {
		t.Fatal("unknown paths not collapsed into \"other\"")
	}
	for _, leak := range []string{"favicon", "passwd"} {
		if strings.Contains(out, leak) {
			t.Fatalf("raw path %q leaked into exposition", leak)
		}
	}
}

// TestCachedSeriesLookupDoesNotAllocate: labeling a request — its status code
// label and the lookup of a series that already exists — allocates nothing.
func TestCachedSeriesLookupDoesNotAllocate(t *testing.T) {
	m := newServerMetrics(time.Now, 1)
	count := func() {
		m.httpReqs.With("/agents", http.MethodPost, codeLabel(http.StatusAccepted)).Inc()
	}
	count()
	if n := testing.AllocsPerRun(200, count); n != 0 {
		t.Errorf("a cached lucidd_http_requests_total lookup allocates %v times, want 0", n)
	}
	if got := m.httpReqs.With("/agents", http.MethodPost, "202").Value(); got != 202 {
		t.Errorf("series count = %v, want 202", got)
	}
}
