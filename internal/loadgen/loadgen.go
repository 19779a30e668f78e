// Package loadgen is a deterministic, seedable load generator for the lucidd
// control plane: it simulates a fleet of node agents spread across virtual
// clusters, heartbeating, submitting jobs, pushing NVIDIA-SMI-style samples
// and issuing tenant-scoped queue/agent queries, with a configurable op mix
// and duration. It speaks HTTP to a server's base URL — a live daemon for
// cmd/lucidload, an httptest server for the tests and lucidd's soak — and
// reports sustained req/s plus p50/p99/p999 latency through the repo's own
// metrics registry. cmd/lucidload is the CLI.
//
// Determinism: every worker derives its op stream from a splitmix64-seeded
// RNG of (Seed, worker index), so a given configuration replays the same
// per-worker request sequence every run — what makes the soak test's
// "every acknowledged job survives" assertion exact rather than statistical.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/xrand"
)

// Op names (the {op} label on lucidload_request_seconds).
const (
	OpHeartbeat = "heartbeat"
	OpSample    = "sample"
	OpSubmit    = "submit"
	OpSchedule  = "schedule"
	OpAgents    = "agents"
)

// Mix weighs the op types. Zero-valued fields never fire.
type Mix struct {
	Heartbeat int
	Sample    int
	Submit    int
	Schedule  int
	Agents    int
}

// DefaultMix is telemetry-dominated, the shape of a real control plane's
// traffic: heartbeats and samples dwarf submissions, with a steady trickle
// of tenant-scoped queue and agent queries (dashboards, pollers).
func DefaultMix() Mix {
	return Mix{Heartbeat: 8, Sample: 4, Submit: 1, Schedule: 1, Agents: 2}
}

// ParseMix parses "heartbeat=8,sample=4,submit=1,schedule=1,agents=2" style
// specs; omitted ops get weight 0.
func ParseMix(s string) (Mix, error) {
	var m Mix
	if strings.TrimSpace(s) == "" {
		return m, fmt.Errorf("loadgen: empty mix")
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("loadgen: bad mix term %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: bad mix weight %q", part)
		}
		switch kv[0] {
		case OpHeartbeat:
			m.Heartbeat = w
		case OpSample:
			m.Sample = w
		case OpSubmit:
			m.Submit = w
		case OpSchedule:
			m.Schedule = w
		case OpAgents:
			m.Agents = w
		default:
			return m, fmt.Errorf("loadgen: unknown op %q in mix", kv[0])
		}
	}
	if m.total() == 0 {
		return m, fmt.Errorf("loadgen: mix has zero total weight")
	}
	return m, nil
}

func (m Mix) total() int {
	return m.Heartbeat + m.Sample + m.Submit + m.Schedule + m.Agents
}

func (m Mix) String() string {
	return fmt.Sprintf("heartbeat=%d,sample=%d,submit=%d,schedule=%d,agents=%d",
		m.Heartbeat, m.Sample, m.Submit, m.Schedule, m.Agents)
}

// pick maps a roll in [0, total) onto an op name.
func (m Mix) pick(roll int) string {
	for _, c := range []struct {
		w  int
		op string
	}{
		{m.Heartbeat, OpHeartbeat}, {m.Sample, OpSample}, {m.Submit, OpSubmit},
		{m.Schedule, OpSchedule}, {m.Agents, OpAgents},
	} {
		if roll < c.w {
			return c.op
		}
		roll -= c.w
	}
	return OpHeartbeat
}

// Options configures one load run.
type Options struct {
	BaseURL string // the server, e.g. http://127.0.0.1:8080

	Agents  int // simulated node agents, partitioned across workers
	VCs     int // virtual clusters vc-0 … vc-(N-1); agents and jobs spread across them
	Workers int // concurrent client goroutines

	// OpsPerWorker bounds each worker's op count; 0 means unbounded (stop
	// on Duration). Deterministic tests use OpsPerWorker with Duration 0.
	OpsPerWorker int
	Duration     time.Duration

	Seed int64
	Mix  Mix

	// The seams below are set only by this package's tests.

	// dialContext, when non-nil, replaces the network dialer. The
	// connection-reuse regression test counts physical dials through it.
	dialContext func(ctx context.Context, network, addr string) (net.Conn, error)
	// retryAfterCap bounds how long a worker honors a server's Retry-After
	// hint (backpressure 429s, drain-gate 503s) before resuming its stream.
	// The server advertises whole seconds; a saturation harness that slept
	// the full hint would measure its own sleeping, so the cap is 50ms —
	// long enough to let an overloaded shard drain, short enough to keep
	// probing it. Only this package's tests set another (0 selects 50ms).
	retryAfterCap time.Duration
}

func (o Options) withDefaults() Options {
	if o.Agents <= 0 {
		o.Agents = 256
	}
	if o.VCs <= 0 {
		o.VCs = 8
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Mix.total() == 0 {
		o.Mix = DefaultMix()
	}
	if o.OpsPerWorker <= 0 && o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.retryAfterCap == 0 {
		o.retryAfterCap = 50 * time.Millisecond
	}
	return o
}

// OpStats summarizes one op type's outcomes.
type OpStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	P50ms  float64 `json:"p50_ms"`
	P99ms  float64 `json:"p99_ms"`
	P999ms float64 `json:"p999_ms"`
}

// Result is one load run's report.
type Result struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"` // transport failures + unexpected statuses
	// Rejected counts explicit, retryable server refusals — never errors, so
	// BENCH error gates stay meaningful under backpressure. It is the sum of
	// the two refusal classes below.
	Rejected    int64   `json:"rejected"`
	Rejected429 int64   `json:"rejected_429"` // ingest-queue backpressure
	Rejected503 int64   `json:"rejected_503"` // drain gate
	DurationSec float64 `json:"duration_sec"`
	ReqPerSec   float64 `json:"req_per_sec"`
	P50ms       float64 `json:"p50_ms"`
	P99ms       float64 `json:"p99_ms"`
	P999ms      float64 `json:"p999_ms"`

	PerOp map[string]OpStats `json:"per_op"`

	// AckedJobs are the job IDs the server acknowledged with 201, sorted —
	// the soak test's zero-dropped-acks ledger.
	AckedJobs []int `json:"-"`
}

// Summary renders the one-line human report the CLI prints (and CI greps).
func (r *Result) Summary() string {
	return fmt.Sprintf("lucidload: %d reqs in %.2fs = %.0f req/s; p50=%.3fms p99=%.3fms p999=%.3fms errors=%d rejected=%d rejected429=%d rejected503=%d",
		r.Requests, r.DurationSec, r.ReqPerSec, r.P50ms, r.P99ms, r.P999ms,
		r.Errors, r.Rejected, r.Rejected429, r.Rejected503)
}

// latencyBuckets resolves ~1µs to ~100s at ×1.35 granularity: fine enough
// that bucketed p99s are meaningful for sub-millisecond loopback calls.
func latencyBuckets() []float64 { return metrics.ExpBuckets(1e-6, 1.35, 62) }

// Run executes one load run and blocks until every worker finishes.
// Cancelling ctx ends the run early: each worker checks it between requests,
// and it cuts a Retry-After backoff short. A request already in flight
// completes, so a cancelled run counts no error for it.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: no target (set BaseURL)")
	}
	// Connection reuse is load-bearing: every worker must keep one
	// persistent connection, or the harness measures TIME_WAIT churn and
	// ephemeral-port exhaustion instead of the server. The idle pool is
	// sized past the worker count on BOTH knobs (MaxIdleConnsPerHost
	// defaults to 2 — the classic silent dial storm against a single
	// host), idle conns outlive worker think-time, and response bodies
	// are always drained (see httpTarget.do) so the transport can
	// recycle them. TestNetworkModeReusesConnections counts dials.
	tr := &http.Transport{
		MaxIdleConns:        opts.Workers * 2,
		MaxIdleConnsPerHost: opts.Workers * 2,
		IdleConnTimeout:     90 * time.Second,
		// Tiny JSON bodies never win from gzip; skip the negotiation.
		DisableCompression: true,
	}
	defer tr.CloseIdleConnections()
	if opts.dialContext != nil {
		tr.DialContext = opts.dialContext
	}
	tgt := &httpTarget{base: strings.TrimRight(opts.BaseURL, "/"), client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: tr,
	}}

	reg := metrics.New()
	lat := reg.HistogramVec("lucidload_request_seconds",
		"Load-generator observed request latency by op.", latencyBuckets(), "op")
	all := reg.Histogram("lucidload_request_seconds_all",
		"Load-generator observed request latency, all ops.", latencyBuckets())

	workers := make([]*worker, opts.Workers)
	for w := range workers {
		workers[w] = newWorker(w, opts, tgt, lat, all)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.run(ctx, start)
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := &Result{DurationSec: elapsed, PerOp: map[string]OpStats{}}
	perOpErr := map[string]int64{}
	for _, wk := range workers {
		res.Requests += wk.requests
		res.Errors += wk.errors
		res.Rejected429 += wk.rejected429
		res.Rejected503 += wk.rejected503
		res.AckedJobs = append(res.AckedJobs, wk.acked...)
		for op, n := range wk.opErrors {
			perOpErr[op] += n
		}
	}
	res.Rejected = res.Rejected429 + res.Rejected503
	sort.Ints(res.AckedJobs)
	if elapsed > 0 {
		res.ReqPerSec = float64(res.Requests) / elapsed
	}
	res.P50ms = all.Quantile(0.50) * 1000
	res.P99ms = all.Quantile(0.99) * 1000
	res.P999ms = all.Quantile(0.999) * 1000
	for _, op := range []string{OpHeartbeat, OpSample, OpSubmit, OpSchedule, OpAgents} {
		h := lat.With(op)
		if h.Count() == 0 && perOpErr[op] == 0 {
			continue
		}
		res.PerOp[op] = OpStats{
			Count:  int64(h.Count()),
			Errors: perOpErr[op],
			P50ms:  h.Quantile(0.50) * 1000,
			P99ms:  h.Quantile(0.99) * 1000,
			P999ms: h.Quantile(0.999) * 1000,
		}
	}
	return res, nil
}

// worker drives one deterministic op stream.
type worker struct {
	idx  int
	opts Options
	tgt  *httpTarget
	rng  *rand.Rand
	lat  *metrics.HistogramVec
	all  *metrics.Histogram

	agentLo, agentHi int // this worker's agent slice [lo, hi)
	nextAgent        int
	submitSeq        int

	requests    int64
	errors      int64
	rejected429 int64
	rejected503 int64
	opErrors    map[string]int64
	acked       []int
}

func newWorker(idx int, opts Options, tgt *httpTarget, lat *metrics.HistogramVec, all *metrics.Histogram) *worker {
	lo := idx * opts.Agents / opts.Workers
	hi := (idx + 1) * opts.Agents / opts.Workers
	// One splitmix64 step from a per-worker key decorrelates a worker's
	// stream from its neighbors' even for adjacent seeds.
	key := uint64(opts.Seed)*0x9e3779b97f4a7c15 + uint64(idx) + 1
	return &worker{
		idx: idx, opts: opts, tgt: tgt,
		rng: rand.New(rand.NewSource(int64(xrand.Mix64(key + 0x9e3779b97f4a7c15)))),
		lat: lat, all: all,
		agentLo: lo, agentHi: hi, nextAgent: lo,
		opErrors: map[string]int64{},
	}
}

func (w *worker) vcName(i int) string { return "vc-" + strconv.Itoa(i) }

func (w *worker) run(ctx context.Context, start time.Time) {
	var deadline time.Time
	if w.opts.Duration > 0 {
		deadline = start.Add(w.opts.Duration)
	}
	total := w.opts.Mix.total()
	for n := 0; w.opts.OpsPerWorker <= 0 || n < w.opts.OpsPerWorker; n++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
		if ctx.Err() != nil {
			return
		}
		w.step(ctx, w.opts.Mix.pick(w.rng.Intn(total)))
	}
}

// step issues one op. Agents are walked round-robin inside the worker's
// slice (every agent keeps heartbeating); jobs are sampled from the worker's
// own acked submissions, so samples never 404.
func (w *worker) step(ctx context.Context, op string) {
	switch op {
	case OpHeartbeat:
		agent := w.nextAgent
		w.nextAgent++
		if w.nextAgent >= w.agentHi {
			w.nextAgent = w.agentLo
		}
		vc := w.vcName(agent % w.opts.VCs)
		body := fmt.Sprintf(`{"name":"agent-%d","vc":"%s","node":%d}`, agent, vc, agent)
		w.issue(ctx, op, http.MethodPost, "/agents", body, false)
	case OpSample:
		if len(w.acked) == 0 {
			w.step(ctx, OpSubmit)
			return
		}
		id := w.acked[w.rng.Intn(len(w.acked))]
		body := fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`,
			id, 20+w.rng.Intn(75), 1200+w.rng.Intn(14000), 5+w.rng.Intn(60))
		w.issue(ctx, op, http.MethodPost, "/metrics", body, false)
	case OpSubmit:
		vc := w.vcName(w.rng.Intn(w.opts.VCs))
		w.submitSeq++
		body := fmt.Sprintf(`{"name":"load-w%d-%d","user":"loadgen","vc":"%s","gpus":%d}`,
			w.idx, w.submitSeq, vc, 1<<w.rng.Intn(4))
		status, resp, err := w.issue(ctx, op, http.MethodPost, "/jobs", body, true)
		if err == nil && status == http.StatusCreated {
			if id := parseJobID(resp); id > 0 {
				w.acked = append(w.acked, id)
			}
		}
	case OpSchedule:
		w.issue(ctx, op, http.MethodGet, "/schedule?vc="+w.vcName(w.rng.Intn(w.opts.VCs)), "", false)
	case OpAgents:
		w.issue(ctx, op, http.MethodGet, "/agents?vc="+w.vcName(w.rng.Intn(w.opts.VCs)), "", false)
	}
}

// issue sends one request, timing it and classifying the outcome. 2xx is
// success (201 submission, 202 queued telemetry, 200 read); 429 is ingest
// backpressure and 503 a drain rejection — both are explicit retryable
// refusals, counted as Rejected and honored with a capped Retry-After
// backoff, never errors; anything else, or a transport error, is an error.
func (w *worker) issue(ctx context.Context, op, method, path, body string, wantBody bool) (int, []byte, error) {
	t0 := time.Now()
	status, retryAfter, resp, err := w.tgt.do(method, path, body, wantBody)
	d := time.Since(t0).Seconds()
	w.requests++
	switch {
	case err != nil:
		w.errors++
		w.opErrors[op]++
	case status == http.StatusTooManyRequests:
		w.rejected429++
		w.backoff(ctx, retryAfter)
	case status == http.StatusServiceUnavailable:
		w.rejected503++
		w.backoff(ctx, retryAfter)
	case status >= 200 && status < 300:
		w.lat.With(op).Observe(d)
		w.all.Observe(d)
	default:
		w.errors++
		w.opErrors[op]++
	}
	return status, resp, err
}

// backoff honors a server Retry-After hint, capped by retryAfterCap and cut
// short by ctx. No hint (0) means no sleep — a refusal without guidance
// should not slow the deterministic op stream.
func (w *worker) backoff(ctx context.Context, hint time.Duration) {
	if hint <= 0 {
		return
	}
	t := time.NewTimer(min(hint, w.opts.retryAfterCap))
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// parseJobID pulls the "id" field out of a 201 body without a full decode on
// the hot path.
func parseJobID(body []byte) int {
	i := bytes.Index(body, []byte(`"id":`))
	if i < 0 {
		return 0
	}
	i += len(`"id":`)
	id := 0
	for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
		id = id*10 + int(body[i]-'0')
	}
	return id
}

// httpTarget delivers requests over HTTP to a server's base URL.
type httpTarget struct {
	base   string
	client *http.Client
}

// do issues one request. wantBody asks for the response body (submits parse
// the acked job ID out of it); otherwise the body is discarded. The returned
// duration is the server's Retry-After hint (0 when absent).

func (t *httpTarget) do(method, path, body string, wantBody bool) (int, time.Duration, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	// Drain + close unconditionally: an undrained body poisons the
	// keep-alive pool and every poisoned response costs a fresh dial.
	defer resp.Body.Close()
	ra := parseRetryAfter(resp.Header)
	if wantBody {
		b, rerr := io.ReadAll(resp.Body)
		return resp.StatusCode, ra, b, rerr
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, ra, nil, nil
}

// parseRetryAfter reads a whole-seconds Retry-After header (the only form
// lucidd emits); absent or malformed values mean no hint.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}
