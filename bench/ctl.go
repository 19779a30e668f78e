package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/lucidd"
	"repro/internal/snap"
	"repro/internal/xrand"
)

// ctlWorkload drives an in-process lucidd.Server through ServeHTTP from one
// goroutine: a closed loop of fixed, pre-generated operations. Sockets are
// left out on purpose — a heartbeat over loopback HTTP costs ~0.17 ms against
// ~0.003 ms through ServeHTTP, so a socket workload would measure net/http
// and hide every lucidd change; the transport's cost is the per-layer metric
// net.roundtrip_p50_us instead.
type ctlWorkload struct {
	repSeconds float64
	rep        func(c *ctlRun, tr *tracer)
}

// ctlSize is the working set and the operation counts of one repetition.
type ctlSize struct {
	agents, vcs, jobs int // preloaded
	ingestOps         int // ctl_ingest: operations per repetition
	readIters         int // ctl_read: {readWrites writes, one read} per repetition
	readWrites        int
	walAppends        int // disk-alone probe
	walFsyncs         int
	netBeats          int // transport-alone probe
}

var (
	fullCtl = ctlSize{agents: 32768, vcs: 16, jobs: 4096, ingestOps: 200_000,
		readIters: 900, readWrites: 64, walAppends: 20_000, walFsyncs: 200, netBeats: 4000}
	tinyCtl = ctlSize{agents: 256, vcs: 16, jobs: 64, ingestOps: 2000,
		readIters: 30, readWrites: 16, walAppends: 200, walFsyncs: 5, netBeats: 50}
)

// jobEvery makes every 512th ingest operation a durable POST /jobs.
const jobEvery = 512

// setupRuns is how many times a ctl run sets its server up; setup_s is the
// median.
const setupRuns = 3

type opKind uint8

const (
	opBeat opKind = iota
	opSample
	opJob
)

// op is one pre-generated request.
type op struct {
	kind opKind
	body string
}

// ctlRun is one workload run's server, inputs and measurements.
type ctlRun struct {
	size ctlSize
	srv  *lucidd.Server
	cl   *client
	r    *result

	ops []op // one repetition's write stream, replayed by every repetition

	postAgents, postMetrics, postJobs *samples
	flushes                           *samples
	schedGlobal, schedVC, agentsVC    *samples
	readBarrier, readMergeEncode      *samples

	backpressure int
	readBytes    int
	reads        int
	sent         int   // operations sent in the current repetition
	acked        []int // job ids the server acknowledged with 201
	serverErrors int   // 5xx responses
}

func (s ctlWorkload) run(cfg runCfg, r *result, tr *tracer) (err error) {
	size := fullCtl
	if cfg.tiny {
		size = tinyCtl
	}
	reps := cfg.reps(s.repSeconds)
	r.env.Reps = reps

	// State lives inside the working directory: the benchmark writes nowhere
	// else, and WAL + fsync are on.
	dir := filepath.Join(".bench_build", "ctl-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	c := &ctlRun{size: size, r: r}
	beats, preloadJobs := c.generate(xrand.New(cfg.seed))

	// Set-up is a second of fsyncs, the noisiest second of the run, so it is
	// done setupRuns times, each on a fresh state directory, and the median is
	// reported. The last server built is the one the run uses.
	var srv *lucidd.Server
	shutdown := func() {
		if srv == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if serr := srv.Shutdown(ctx); err == nil && serr != nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
	}
	defer shutdown()
	var setups, boots, preloads []float64
	for i := 0; i < setupRuns; i++ {
		if shutdown(); err != nil {
			return err
		}
		c.acked = c.acked[:0]
		setupStart := time.Now()
		srv, err = lucidd.NewServerWith(lucidd.Options{Shards: 16, IngestQueue: 4096,
			StateDir: filepath.Join(dir, "state-"+strconv.Itoa(i)), AgentStaleAfter: time.Hour})
		if err != nil {
			return err
		}
		boots = append(boots, time.Since(setupStart).Seconds())
		c.srv, c.cl = srv, newClient(srv)

		preloadStart := time.Now()
		for _, body := range beats {
			c.post(op{opBeat, body}, nil)
		}
		for _, body := range preloadJobs {
			c.post(op{opJob, body}, nil)
		}
		srv.Flush()
		preloads = append(preloads, time.Since(preloadStart).Seconds())
		setups = append(setups, time.Since(setupStart).Seconds())
		r.check(len(c.acked) == size.jobs, "preload %d: %d of %d jobs acknowledged", i, len(c.acked), size.jobs)
	}
	r.set("lucidd.boot_s", median(boots))
	r.set("lucidd.preload_s", median(preloads))
	r.set("setup_s", median(setups))

	// Sample buffers are sized before the timed section.
	total := (reps + 1) * len(c.ops)
	c.postAgents, c.postMetrics = newSamples(total), newSamples(total/4)
	c.postJobs, c.flushes = newSamples(total/jobEvery+16), newSamples(4096)
	perRead := (reps+1)*size.readIters/3 + 16
	c.schedGlobal, c.schedVC, c.agentsVC = newSamples(perRead), newSamples(perRead), newSamples(perRead)
	c.readBarrier, c.readMergeEncode = newSamples(perRead), newSamples(perRead)

	// Warm-up repetition, untimed, then forget its samples.
	s.rep(c, nil)
	for _, sm := range []*samples{c.postAgents, c.postMetrics, c.postJobs, c.flushes,
		c.schedGlobal, c.schedVC, c.agentsVC, c.readBarrier, c.readMergeEncode} {
		sm.ns = sm.ns[:0]
	}
	c.backpressure, c.readBytes, c.reads = 0, 0, 0

	before := c.scrape()
	err = timedReps(reps, tr, r, func(_ int, repTr *tracer) (float64, error) {
		c.sent = 0
		start := time.Now()
		s.rep(c, repTr)
		el := time.Since(start).Seconds()
		r.attempted += c.sent
		return float64(c.sent) / el, nil
	})
	if err != nil {
		return err
	}
	r.env.OpCounts["ops_per_repetition"] = c.sent
	after := c.scrape()
	r.env.OpCounts["agents"] = size.agents
	r.env.OpCounts["preloaded_jobs"] = size.jobs

	c.outputChecks()

	// latency_p50_ms is taken over one operation class, the POST /agents ack,
	// on both workloads: a percentile over a mix of cheap and expensive
	// operations sits on the class boundary and jumps. On ctl_read it is the
	// ack beside reads — a read that holds a shard longer shows here. The
	// reads' own percentiles are per-layer: a global GET /schedule waits for 16
	// fsyncs, and its median follows the disk's tail, not the code (the same
	// build read 4.9 and 7.4 ms in runs ten minutes apart).
	r.env.OpCounts["latency_samples"] = c.postAgents.count()
	r.set("latency_p50_ms", c.postAgents.percentile(0.50)/1e6)
	r.set("lucidd.post_agents_p90_us", c.postAgents.percentile(0.90)/1e3)
	r.set("lucidd.post_agents_p99_us", c.postAgents.percentile(0.99)/1e3)
	r.set("lucidd.post_metrics_p50_us", c.postMetrics.percentile(0.50)/1e3)
	r.set("lucidd.post_jobs_p50_ms", c.postJobs.percentile(0.50)/1e6)
	r.set("lucidd.post_jobs_p90_ms", c.postJobs.percentile(0.90)/1e6)
	r.set("lucidd.flush_p50_ms", c.flushes.percentile(0.50)/1e6)
	r.set("lucidd.backpressure_waits", float64(c.backpressure))
	r.set("lucidd.get_schedule_vc_p50_ms", c.schedVC.percentile(0.50)/1e6)
	r.set("lucidd.get_agents_vc_p50_ms", c.agentsVC.percentile(0.50)/1e6)
	r.set("lucidd.get_schedule_global_p50_ms", c.schedGlobal.percentile(0.50)/1e6)
	r.set("lucidd.get_schedule_global_p90_ms", c.schedGlobal.percentile(0.90)/1e6)
	r.set("lucidd.get_schedule_global_p99_ms", c.schedGlobal.percentile(0.99)/1e6)
	r.set("lucidd.read_barrier_p50_ms", c.readBarrier.percentile(0.50)/1e6)
	r.set("lucidd.read_merge_encode_p50_ms", c.readMergeEncode.percentile(0.50)/1e6)
	if c.reads > 0 {
		r.set("lucidd.read_bytes_per_op", float64(c.readBytes)/float64(c.reads))
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	r.set("lucidd.ingest_applied", delta("lucidd_ingest_applied_total"))
	r.set("lucidd.ingest_rejected_429", delta("lucidd_ingest_rejected_total"))
	if n := delta("lucidd_ingest_batch_ops_count"); n > 0 {
		r.set("lucidd.ingest_batch_mean_ops", delta("lucidd_ingest_batch_ops_sum")/n)
	}
	r.set("snap.wal_append_count", delta("lucidd_wal_append_seconds_count"))
	r.set("snap.wal_append_total_s", delta("lucidd_wal_append_seconds_sum"))
	r.set("snap.wal_fsync_count", delta("lucidd_wal_fsync_seconds_count"))
	r.set("snap.wal_fsync_total_s", delta("lucidd_wal_fsync_seconds_sum"))
	r.set("lucidd.compactions", delta("lucidd_compactions_total"))
	r.set("lucidd.snapshot_total_s", delta("lucidd_snapshot_seconds_sum"))

	if tr != nil {
		tr.rep = -1 // the probes below are not part of any repetition
		if err := c.diskAlone(dir, tr); err != nil {
			return err
		}
		if err := c.transportAlone(beats, tr); err != nil {
			return err
		}
	}
	return nil
}

// generate derives every input from the seed: the preload bodies and one
// repetition's write stream (4 heartbeats : 1 sample, every jobEvery-th
// operation a job submission).
func (c *ctlRun) generate(gen *xrand.RNG) (beats, preloadJobs []string) {
	size := c.size
	beats = make([]string, size.agents)
	for i := range beats {
		beats[i] = fmt.Sprintf(`{"name":"agent-%05d","vc":"vc-%d","node":%d}`, i, i%size.vcs, i)
	}
	gpuChoices := []int{1, 1, 1, 2, 4, 8}
	newJob := func() string {
		return fmt.Sprintf(`{"name":"train-%03d","user":"user-%02d","vc":"vc-%d","gpus":%d,"amp":%v}`,
			gen.Intn(400), gen.Intn(64), gen.Intn(size.vcs), gpuChoices[gen.Intn(len(gpuChoices))], gen.Intn(2) == 0)
	}
	preloadJobs = make([]string, size.jobs)
	for i := range preloadJobs {
		preloadJobs[i] = newJob()
	}
	c.ops = make([]op, size.ingestOps)
	for i := range c.ops {
		switch {
		case i%jobEvery == jobEvery-1:
			c.ops[i] = op{opJob, newJob()}
		case i%5 == 4:
			// Samples go to preloaded jobs only (ids 1..jobs), so every
			// repetition touches the same working set.
			c.ops[i] = op{opSample, fmt.Sprintf(`{"job":%d,"gpu_util":%d,"gpu_mem_mb":%d,"gpu_mem_util":%d}`,
				1+gen.Intn(size.jobs), gen.Intn(101), 500+gen.Intn(30000), gen.Intn(101))}
		default:
			c.ops[i] = op{opBeat, beats[gen.Intn(size.agents)]}
		}
	}
	return beats, preloadJobs
}

// post sends one write, re-sending after a Flush when the shard's queue sheds
// it with 429 (backpressure is a wait, not a failure). lat receives the
// latency of the accepted attempt.
func (c *ctlRun) post(o op, lat *samples) {
	path, want := "/agents", http.StatusAccepted
	switch o.kind {
	case opSample:
		path = "/metrics"
	case opJob:
		path, want = "/jobs", http.StatusCreated
	}
	c.sent++
	for {
		start := time.Now()
		code := c.cl.do(http.MethodPost, path, "", o.body, o.kind == opJob)
		d := time.Since(start)
		if code == http.StatusTooManyRequests {
			c.backpressure++
			c.srv.Flush()
			continue
		}
		if lat != nil {
			lat.add(d)
		}
		if code >= 500 {
			c.serverErrors++
		}
		if code != want {
			c.r.failed++
			return
		}
		if o.kind == opJob {
			var ack struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(c.cl.rw.body, &ack); err != nil || ack.ID == 0 {
				c.r.failed++
				return
			}
			c.acked = append(c.acked, ack.ID)
		}
		return
	}
}

// write sends one operation of the stream into its class's sample set.
func (c *ctlRun) write(o op) {
	switch o.kind {
	case opBeat:
		c.post(o, c.postAgents)
	case opSample:
		c.post(o, c.postMetrics)
	default:
		c.post(o, c.postJobs)
	}
}

// flush is the repetition's closing barrier: throughput counts operations
// applied and fsynced, not merely acknowledged.
func (c *ctlRun) flush(tr *tracer) {
	id := tr.begin("lucidd.flush")
	start := time.Now()
	c.srv.Flush()
	c.flushes.add(time.Since(start))
	tr.end(id)
}

// ingestRep is one ctl_ingest repetition: the whole write stream, then Flush.
// Spans are per burst — the jobEvery operations that end in a durable job
// submission — not per operation.
func ingestRep(c *ctlRun, tr *tracer) {
	for i := 0; i < len(c.ops); i += jobEvery {
		end := i + jobEvery
		if end > len(c.ops) {
			end = len(c.ops)
		}
		id := tr.begin("ctl.burst")
		for _, o := range c.ops[i:end] {
			if o.kind == opJob {
				jid := tr.begin("lucidd.post_jobs")
				c.write(o)
				tr.end(jid)
			} else {
				c.write(o)
			}
		}
		tr.end(id)
	}
	c.flush(tr)
}

// readRep is one ctl_read repetition: readIters × {readWrites telemetry
// writes, then one read}, the read rotating over the global schedule, one
// VC's schedule and one VC's agents. In a traced repetition the global read
// is split by issuing the Flush barrier explicitly first.
func readRep(c *ctlRun, tr *tracer) {
	next := 0
	for it := 0; it < c.size.readIters; it++ {
		id := tr.begin("ctl.writes")
		for n := 0; n < c.size.readWrites; next++ {
			o := c.ops[next%len(c.ops)]
			if o.kind == opJob {
				continue // ctl_read's writes are telemetry only
			}
			c.write(o)
			n++
		}
		tr.end(id)

		vc := "vc=vc-" + strconv.Itoa(it%c.size.vcs)
		c.sent++
		c.reads++
		switch it % 3 {
		case 0:
			start := time.Now()
			mid := start
			if tr != nil {
				c.srv.Flush()
				mid = time.Now()
				c.readBarrier.add(mid.Sub(start))
				tr.leaf("lucidd.read_barrier", start, mid)
			}
			c.read("/schedule", "")
			end := time.Now()
			if tr != nil {
				c.readMergeEncode.add(end.Sub(mid))
				tr.leaf("lucidd.read_merge_encode", mid, end)
			}
			c.schedGlobal.add(end.Sub(start))
		case 1:
			start := time.Now()
			c.read("/schedule", vc)
			end := time.Now()
			c.schedVC.add(end.Sub(start))
			tr.leaf("lucidd.get_schedule_vc", start, end)
		default:
			start := time.Now()
			c.read("/agents", vc)
			end := time.Now()
			c.agentsVC.add(end.Sub(start))
			tr.leaf("lucidd.get_agents_vc", start, end)
		}
	}
	c.flush(tr)
}

func (c *ctlRun) read(path, query string) {
	code := c.cl.do(http.MethodGet, path, query, "", false)
	c.readBytes += c.cl.rw.written
	if code >= 500 {
		c.serverErrors++
	}
	if code != http.StatusOK {
		c.r.failed++
	}
}

// scrape reads lucidd's own instruments through GET /metrics.
func (c *ctlRun) scrape() map[string]float64 {
	c.cl.do(http.MethodGet, "/metrics", "", "", true)
	return parseProm(string(c.cl.rw.body))
}

// outputChecks verifies, after the final Flush, what the server promised:
// no 5xx, every acknowledged job present, the schedule in priority order.
func (c *ctlRun) outputChecks() {
	r := c.r
	r.check(c.serverErrors == 0, "%d responses were 5xx", c.serverErrors)

	type jobView struct {
		ID     int     `json:"id"`
		GPUs   int     `json:"gpus"`
		EstSec float64 `json:"estimate_sec"`
	}
	var listed []jobView
	c.cl.do(http.MethodGet, "/jobs", "", "", true)
	if err := json.Unmarshal(c.cl.rw.body, &listed); err != nil {
		r.check(false, "GET /jobs: %v", err)
		return
	}
	present := make(map[int]bool, len(listed))
	for _, j := range listed {
		present[j.ID] = true
	}
	missing := 0
	for _, id := range c.acked {
		if !present[id] {
			missing++
		}
	}
	r.check(missing == 0, "%d of %d acknowledged jobs are missing from GET /jobs", missing, len(c.acked))

	var queue []jobView
	c.cl.do(http.MethodGet, "/schedule", "", "", true)
	if err := json.Unmarshal(c.cl.rw.body, &queue); err != nil {
		r.check(false, "GET /schedule: %v", err)
		return
	}
	// Algorithm 2: GPU demand × estimated duration ascending, job id breaking ties.
	unsorted := 0
	for i := 1; i < len(queue); i++ {
		a, b := queue[i-1], queue[i]
		pa, pb := float64(a.GPUs)*a.EstSec, float64(b.GPUs)*b.EstSec
		if pa > pb || (pa == pb && a.ID > b.ID) {
			unsorted++
		}
	}
	r.check(unsorted == 0 && len(queue) == len(listed),
		"GET /schedule: %d of %d jobs listed, %d out of priority order", len(queue), len(listed), unsorted)
}

// diskAlone times the WAL with no server above it, in the same directory:
// what an append and an fsync cost on this disk.
func (c *ctlRun) diskAlone(dir string, tr *tracer) error {
	id := tr.begin("layers.disk_alone")
	defer tr.end(id)
	wal, _, err := snap.OpenWAL(filepath.Join(dir, "probe.wal"), nil)
	if err != nil {
		return err
	}
	defer wal.Close()
	payload := []byte(`{"op":"agent","name":"agent-00000","vc":"vc-0","node":0,"unix_nano":1700000000000000000}`)
	wal.SyncEvery = 1 << 30 // appends alone: no batching-threshold fsync in between
	start := time.Now()
	for i := 0; i < c.size.walAppends; i++ {
		if err := wal.Append(payload, false); err != nil {
			return err
		}
	}
	c.r.set("snap.wal_append_us", time.Since(start).Seconds()*1e6/float64(c.size.walAppends))
	syncs := newSamples(c.size.walFsyncs)
	for i := 0; i < c.size.walFsyncs; i++ {
		start := time.Now()
		if err := wal.Append(payload, true); err != nil {
			return err
		}
		syncs.add(time.Since(start))
	}
	c.r.set("snap.wal_fsync_ms", syncs.percentile(0.50)/1e6)
	return wal.Close()
}

// transportAlone sends heartbeats to the same server over a loopback socket,
// one keep-alive connection: its median minus the in-process heartbeat's is
// what net/http and the kernel add.
func (c *ctlRun) transportAlone(beats []string, tr *tracer) (err error) {
	id := tr.begin("layers.transport_alone")
	defer tr.end(id)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: c.srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := hs.Shutdown(ctx); err == nil && serr != nil {
			err = serr
		}
		<-served // Serve has returned: the listener goroutine is gone
	}()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	target := "http://" + ln.Addr().String() + "/agents"
	trips := newSamples(c.size.netBeats)
	for i := 0; i < c.size.netBeats; i++ {
		start := time.Now()
		resp, err := hc.Post(target, "application/json", strings.NewReader(beats[i%len(beats)]))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		trips.add(time.Since(start))
		if resp.StatusCode == http.StatusTooManyRequests {
			c.srv.Flush()
		}
	}
	c.srv.Flush()
	c.r.set("net.roundtrip_p50_us", trips.percentile(0.50)/1e3)
	return nil
}

// client delivers requests straight into the handler, reusing one request,
// one body reader and one response writer so the driver adds as little as it
// can to what it measures. The handler runs to completion inside do and
// keeps nothing from the request.
type client struct {
	h    http.Handler
	req  http.Request
	hdr  http.Header
	url  url.URL
	body bodyReader
	rw   respWriter
}

func newClient(h http.Handler) *client {
	return &client{h: h, hdr: http.Header{}}
}

// do serves one request and returns its status. The response body is kept in
// c.rw.body only when keep is set; c.rw.written counts its bytes either way.
func (c *client) do(method, path, query, body string, keep bool) int {
	c.url = url.URL{Path: path, RawQuery: query}
	c.body.Reset(body)
	clear(c.hdr)
	c.req = http.Request{Method: method, URL: &c.url, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.hdr, Body: &c.body, ContentLength: int64(len(body)), Host: "lucidd"}
	c.rw.reset(keep)
	c.h.ServeHTTP(&c.rw, &c.req)
	return c.rw.code
}

type bodyReader struct{ strings.Reader }

func (*bodyReader) Close() error { return nil }

// respWriter is a minimal http.ResponseWriter: status captured, bytes
// counted, body retained only on request.
type respWriter struct {
	code    int
	hdr     http.Header
	keep    bool
	body    []byte
	written int
}

func (w *respWriter) reset(keep bool) {
	w.code, w.keep, w.written = http.StatusOK, keep, 0
	w.body = w.body[:0]
	clear(w.hdr)
}

func (w *respWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *respWriter) WriteHeader(code int) { w.code = code }

func (w *respWriter) Write(p []byte) (int, error) {
	w.written += len(p)
	if w.keep {
		w.body = append(w.body, p...)
	}
	return len(p), nil
}
