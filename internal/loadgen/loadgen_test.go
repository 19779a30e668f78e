package loadgen

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordingHandler is a stub control plane: it logs every request it sees
// and acks job submissions with sequential IDs, so tests can inspect the
// exact op stream a configuration produces.
type recordingHandler struct {
	mu     sync.Mutex
	seen   []string // "METHOD path body"
	nextID int
}

func (h *recordingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	h.mu.Lock()
	h.seen = append(h.seen, r.Method+" "+r.URL.RequestURI()+" "+string(body))
	isSubmit := r.Method == http.MethodPost && r.URL.Path == "/jobs"
	if isSubmit {
		h.nextID++
	}
	id := h.nextID
	h.mu.Unlock()
	if isSubmit {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":%d,"name":"x"}`, id)
		return
	}
	w.Write([]byte(`{}`))
}

// serve puts h behind a loopback HTTP server for the rest of the test and
// returns its base URL.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestParseMix covers the spec grammar and its rejects.
func TestParseMix(t *testing.T) {
	m, err := ParseMix("heartbeat=8,sample=4,submit=1,schedule=1,agents=2")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Heartbeat: 8, Sample: 4, Submit: 1, Schedule: 1, Agents: 2}) {
		t.Errorf("parsed mix = %+v", m)
	}
	if _, err := ParseMix(m.String()); err != nil {
		t.Errorf("String() not re-parseable: %v", err)
	}
	for _, bad := range []string{"", "bogus=1", "heartbeat", "heartbeat=-1", "heartbeat=0", "statusz=1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestDeterministicStream is the contract the shard-parity and soak tests
// lean on: the same seed and budget produce the identical request sequence.
func TestDeterministicStream(t *testing.T) {
	stream := func(seed int64) ([]string, []int) {
		h := &recordingHandler{}
		res, err := Run(context.Background(), Options{
			BaseURL: serve(t, h), Agents: 16, VCs: 4, Workers: 1,
			OpsPerWorker: 300, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("stub run had %d errors", res.Errors)
		}
		return h.seen, res.AckedJobs
	}
	a1, acked1 := stream(7)
	a2, acked2 := stream(7)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same seed produced different op streams")
	}
	if !reflect.DeepEqual(acked1, acked2) {
		t.Fatalf("same seed produced different acks: %v vs %v", acked1, acked2)
	}
	b, _ := stream(8)
	if reflect.DeepEqual(a1, b) {
		t.Fatal("different seeds produced the identical op stream")
	}
}

// TestResultAccounting checks that every issued request lands in exactly one
// bucket and the per-op counts reconcile with the total.
func TestResultAccounting(t *testing.T) {
	h := &recordingHandler{}
	res, err := Run(context.Background(), Options{
		BaseURL: serve(t, h), Agents: 32, VCs: 4, Workers: 4,
		OpsPerWorker: 250, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 * 250); res.Requests != want {
		t.Errorf("requests = %d, want %d", res.Requests, want)
	}
	if res.Errors != 0 || res.Rejected != 0 {
		t.Errorf("errors=%d rejected=%d on a 2xx-only stub", res.Errors, res.Rejected)
	}
	var perOp int64
	for _, st := range res.PerOp {
		perOp += st.Count
	}
	if perOp != res.Requests {
		t.Errorf("per-op counts sum to %d, want %d", perOp, res.Requests)
	}
	if len(res.AckedJobs) == 0 {
		t.Error("no jobs acked by a mix containing submits")
	}
	for i := 1; i < len(res.AckedJobs); i++ {
		if res.AckedJobs[i] < res.AckedJobs[i-1] {
			t.Fatal("AckedJobs not sorted")
		}
	}
	if res.ReqPerSec <= 0 || res.DurationSec <= 0 {
		t.Errorf("rates unset: %+v", res)
	}
}

// TestRejectedClassification: 503s (drain gate) and 429s (ingest
// backpressure) are retryable rejections — counted in their own subclasses
// summing into Rejected, never as errors — so BENCH error gates stay
// meaningful when a server sheds load.
func TestRejectedClassification(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	res, err := Run(context.Background(), Options{BaseURL: serve(t, h), Workers: 2, OpsPerWorker: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 100 || res.Rejected503 != 100 || res.Errors != 0 {
		t.Errorf("rejected=%d rejected503=%d errors=%d, want 100/100/0",
			res.Rejected, res.Rejected503, res.Errors)
	}

	h429 := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	// retryAfterCap 1ns: the hint is honored (code path runs) without the
	// test spending wall-clock sleeping.
	res, err = Run(context.Background(), Options{BaseURL: serve(t, h429), Workers: 2, OpsPerWorker: 50, Seed: 1,
		retryAfterCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 100 || res.Rejected429 != 100 || res.Errors != 0 {
		t.Errorf("rejected=%d rejected429=%d errors=%d, want 100/100/0",
			res.Rejected, res.Rejected429, res.Errors)
	}
}

// TestRetryAfterBackoffHonored: a Retry-After hint slows the stream (capped),
// and a refusal without the header does not sleep at all.
func TestRetryAfterBackoffHonored(t *testing.T) {
	withHint := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	start := time.Now()
	if _, err := Run(context.Background(), Options{BaseURL: serve(t, withHint), Workers: 1, OpsPerWorker: 5, Seed: 1,
		retryAfterCap: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 5*20*time.Millisecond {
		t.Errorf("5 hinted refusals finished in %v; want >= 100ms of honored backoff", got)
	}
	noHint := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	start = time.Now()
	if _, err := Run(context.Background(), Options{BaseURL: serve(t, noHint), Workers: 1, OpsPerWorker: 5, Seed: 1,
		retryAfterCap: time.Second}); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got > 500*time.Millisecond {
		t.Errorf("5 hint-less refusals took %v; backoff must require a server hint", got)
	}
}

// TestNetworkModeReusesConnections is the connection-churn regression test:
// a network-mode run must reuse each worker's keep-alive connection, not
// dial per request. An undrained response body, a missing Content-Length, or
// the net/http default MaxIdleConnsPerHost=2 with more workers would all
// show up here as a dial count tracking the request count.
func TestNetworkModeReusesConnections(t *testing.T) {
	srv := httptest.NewServer(&recordingHandler{})
	defer srv.Close()
	const workers, ops = 4, 100
	var dials int64
	res, err := Run(context.Background(), Options{
		BaseURL: srv.URL, Workers: workers, OpsPerWorker: ops, Seed: 3,
		Agents: 16, VCs: 4,
		dialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			atomic.AddInt64(&dials, 1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("network run had %d errors", res.Errors)
	}
	if want := int64(workers * ops); res.Requests != want {
		t.Fatalf("requests = %d, want %d", res.Requests, want)
	}
	// Not "<= workers": when a worker's next request beats its previous
	// connection back into the idle pool, net/http dials a spare and hands the
	// request whichever arrives first. 420 runs here, a third of them under
	// load: 3–8 dials, 4 in two of three, 8 once. Churn is a dial per request — 400.
	if got := atomic.LoadInt64(&dials); got > 2*workers {
		t.Errorf("%d requests from %d workers needed %d dials; want <= %d (one persistent conn per worker, plus at most as many raced spares)",
			res.Requests, workers, got, 2*workers)
	}
}

// TestCancelEndsRun: cancelling the context cuts a Retry-After backoff short
// and stops every worker, and the request in flight at the cancel completes
// as a success, not an error.
func TestCancelEndsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) {
		case 1:
			// A 60 s hint under a one-minute cap: only the cancel ends
			// this worker's backoff.
			w.Header().Set("Retry-After", "60")
			w.WriteHeader(http.StatusTooManyRequests)
		case 2:
			// Cancel while this request is still in flight.
			cancel()
			time.Sleep(20 * time.Millisecond)
			w.Write([]byte(`{}`))
		default:
			w.Write([]byte(`{}`))
		}
	})
	start := time.Now()
	res, err := Run(ctx, Options{BaseURL: serve(t, h), Workers: 2, Seed: 1,
		Duration: time.Minute, retryAfterCap: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got > 10*time.Second {
		t.Errorf("cancelled run took %v", got)
	}
	if res.Errors != 0 || res.Rejected429 != 1 {
		t.Errorf("errors=%d rejected429=%d, want 0/1", res.Errors, res.Rejected429)
	}
	var ok int64
	for _, st := range res.PerOp {
		ok += st.Count
	}
	if res.Requests != 2 || ok != 1 {
		t.Errorf("requests=%d successes=%d, want 2/1: the in-flight request must count as a success", res.Requests, ok)
	}
}

func TestParseJobID(t *testing.T) {
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"id":42,"name":"x"}`, 42},
		{`{"name":"x","id":7}`, 7},
		{`{"name":"x"}`, 0},
		{``, 0},
	} {
		if got := parseJobID([]byte(tc.body)); got != tc.want {
			t.Errorf("parseJobID(%q) = %d, want %d", tc.body, got, tc.want)
		}
	}
}
