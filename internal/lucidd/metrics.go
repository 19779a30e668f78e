package lucidd

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// Server observability. Every server owns a metrics registry: GET /metrics
// serves it in Prometheus text exposition format, so the same scrape
// infrastructure that watches the node agents' GPUs can watch the control
// plane itself. The instruments cover the three layers an operator debugs in
// practice — the HTTP surface (per-endpoint latency and status codes), the
// durability layer (WAL append and fsync latency, snapshot/compaction cost),
// and the scheduler's population (queue depth, profiled jobs, live agents,
// per shard and in aggregate).
//
// The scrape path is deliberately lock-free with respect to the shards: the
// population gauges are refreshed from each shard's atomic counters, never
// by taking a shard mutex. A wedged or slow shard therefore cannot block
// monitoring — exactly when the operator needs the scrape most.

// serverMetrics bundles the pre-registered instruments.
type serverMetrics struct {
	reg *metrics.Registry

	httpReqs    *metrics.CounterVec   // lucidd_http_requests_total{path,method,code}
	httpLatency *metrics.HistogramVec // lucidd_http_request_seconds{path}

	walAppend   *metrics.Histogram // lucidd_wal_append_seconds (snap.WAL.OnWrite)
	walFsync    *metrics.Histogram // lucidd_wal_fsync_seconds
	walUnsynced *metrics.Gauge     // lucidd_wal_unsynced_records
	snapshot    *metrics.Histogram // lucidd_snapshot_seconds
	compacts    *metrics.Counter   // lucidd_compactions_total

	ingestApplied  *metrics.Counter   // lucidd_ingest_applied_total
	ingestRejected *metrics.Counter   // lucidd_ingest_rejected_total (429 backpressure)
	ingestErrors   *metrics.Counter   // lucidd_ingest_errors_total
	ingestDropped  *metrics.Counter   // lucidd_ingest_dropped_total (202-acked, then inapplicable)
	ingestBatch    *metrics.Histogram // lucidd_ingest_batch_ops
	ingestDepth    *metrics.GaugeVec  // lucidd_ingest_queue_depth{shard}

	readBarrier  *metrics.HistogramVec // lucidd_read_barrier_seconds{path}
	readCompose  *metrics.HistogramVec // lucidd_read_compose_seconds{path}
	schedCompose *metrics.CounterVec   // lucidd_schedule_compose_total{kind}

	recRecords *metrics.Gauge // lucidd_recovered_wal_records
	recTorn    *metrics.Gauge // lucidd_recovered_torn_bytes
	recSnap    *metrics.Gauge // lucidd_recovered_from_snapshot (shards recovered from snapshot)

	queueDepth *metrics.Gauge // lucidd_queue_depth
	profiled   *metrics.Gauge // lucidd_jobs_profiled
	agents     *metrics.Gauge // lucidd_agents

	shards      *metrics.Gauge    // lucidd_shards
	shardJobs   *metrics.GaugeVec // lucidd_shard_jobs{shard}
	shardAgents *metrics.GaugeVec // lucidd_shard_agents{shard}
}

// newServerMetrics builds the server's registry. Every histogram takes the
// registry's default buckets (nil), 10µs–~80s: local WAL fsyncs sit at the
// bottom, chaos-delayed or drain-blocked requests at the top.
func newServerMetrics(clock func() time.Time, shards int) *serverMetrics {
	reg := metrics.New()
	reg.SetClock(clock)
	m := &serverMetrics{
		reg: reg,
		httpReqs: reg.CounterVec("lucidd_http_requests_total",
			"HTTP requests by endpoint, method and status code.",
			"path", "method", "code"),
		httpLatency: reg.HistogramVec("lucidd_http_request_seconds",
			"HTTP request latency by endpoint.", nil, "path"),
		walAppend: reg.Histogram("lucidd_wal_append_seconds",
			"WAL write() latency: one write() of a hold's records under the shard mutex (one per hold, more past 64 KiB), never an fsync.",
			nil),
		walFsync: reg.Histogram("lucidd_wal_fsync_seconds",
			"WAL fsync latency (issued at a commit point, outside the shard mutex).", nil),
		walUnsynced: reg.Gauge("lucidd_wal_unsynced_records",
			"WAL records appended and not yet covered by an fsync, summed across shards."),
		snapshot: reg.Histogram("lucidd_snapshot_seconds",
			"Snapshot write + WAL reset (compaction) duration.", nil),
		compacts: reg.Counter("lucidd_compactions_total",
			"Snapshot compactions performed."),
		ingestApplied: reg.Counter("lucidd_ingest_applied_total",
			"Telemetry ops applied from the ingest queues."),
		ingestRejected: reg.Counter("lucidd_ingest_rejected_total",
			"Telemetry POSTs refused with 429 (ingest queue at high-water mark)."),
		ingestErrors: reg.Counter("lucidd_ingest_errors_total",
			"WAL append/fsync errors while applying the ingest queues."),
		ingestDropped: reg.Counter("lucidd_ingest_dropped_total",
			"Telemetry ops acknowledged with 202 and then dropped: the job was unknown by the time the op was applied."),
		// One observation per non-empty drain: the drainer's (at most
		// drainBatch ops) and a flush's (everything queued) alike.
		ingestBatch: reg.Histogram("lucidd_ingest_batch_ops",
			"Ops applied per ingest queue drain (one mutex hold, one commit), flushes included.",
			metrics.ExpBuckets(1, 2, 12)),
		// Read under the queue's own mutex, never the shard mutex, so a
		// wedged shard still scrapes (TestIngestBackpressure).
		ingestDepth: reg.GaugeVec("lucidd_ingest_queue_depth",
			"Queued telemetry ops per shard ingest queue.", "shard"),
		readBarrier: reg.HistogramVec("lucidd_read_barrier_seconds",
			"List read: flush of the covered shards (acknowledged ops applied and fsynced).",
			nil, "path"),
		readCompose: reg.HistogramVec("lucidd_read_compose_seconds",
			"List read after the barrier: per-shard copy-out, merge and body write.",
			nil, "path"),
		schedCompose: reg.CounterVec("lucidd_schedule_compose_total",
			"Cluster-wide GET /schedule bodies by how they were composed: patched from the last body, or rebuilt from every shard.",
			"kind"),
		recRecords: reg.Gauge("lucidd_recovered_wal_records",
			"WAL records replayed at boot, summed across shards."),
		recTorn: reg.Gauge("lucidd_recovered_torn_bytes",
			"Torn WAL tail bytes truncated at boot, summed across shards."),
		recSnap: reg.Gauge("lucidd_recovered_from_snapshot",
			"Shards whose boot state was loaded from a snapshot."),
		queueDepth: reg.Gauge("lucidd_queue_depth",
			"Registered jobs awaiting scheduling."),
		profiled: reg.Gauge("lucidd_jobs_profiled",
			"Jobs whose profile has reached the minimum sample count."),
		agents: reg.Gauge("lucidd_agents", "Live node agents."),
		shards: reg.Gauge("lucidd_shards", "Configured state shards."),
		shardJobs: reg.GaugeVec("lucidd_shard_jobs",
			"Registered jobs per state shard.", "shard"),
		shardAgents: reg.GaugeVec("lucidd_shard_agents",
			"Live node agents per state shard.", "shard"),
	}
	m.shards.Set(float64(shards))
	return m
}

// metricsPaths are the routes ServeHTTP labels individually; anything else
// (404s, probes for /favicon.ico, scanners) collapses into "other" so a
// hostile client cannot explode the label cardinality.
var metricsPaths = map[string]bool{
	"/jobs": true, "/metrics": true, "/schedule": true, "/agents": true,
	"/models/packing": true, "/trace": true, "/healthz": true,
	"/statusz": true, "/chaos": true,
}

func normalizePath(p string) string {
	if metricsPaths[p] {
		return p
	}
	return "other"
}

// codeLabels holds the code label of every status an HTTP handler can write,
// so labeling a request allocates no string.
var codeLabels = func() (l [500]string) {
	for i := range l {
		l[i] = strconv.Itoa(100 + i)
	}
	return l
}()

// codeLabel is strconv.Itoa(code), from codeLabels when it holds the code.
func codeLabel(code int) string {
	if code >= 100 && code < 100+len(codeLabels) {
		return codeLabels[code-100]
	}
	return strconv.Itoa(code)
}

// statusRecorder captures the status code a handler writes so ServeHTTP can
// label the request counter. Handlers that never call WriteHeader implicitly
// send 200.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// observePopulation refreshes the population gauges from the shards' atomic
// counters — no shard lock is taken, so a scrape reflects a near-instant
// view and always completes, even mid-incident with a shard wedged.
func (s *Server) observePopulation() {
	m := s.met
	var jobs, profiled, agents, unsynced int64
	for _, sh := range s.shards {
		j, a := sh.nJobs.Load(), sh.nAgents.Load()
		jobs += j
		profiled += sh.nProfiled.Load()
		agents += a
		if sh.wal != nil {
			unsynced += sh.wal.Unsynced() // the WAL's atomics, no lock
		}
		label := strconv.Itoa(sh.idx)
		m.shardJobs.With(label).Set(float64(j))
		m.shardAgents.With(label).Set(float64(a))
		sh.qmu.Lock()
		depth := len(sh.queue)
		sh.qmu.Unlock()
		m.ingestDepth.With(label).Set(float64(depth))
	}
	m.queueDepth.Set(float64(jobs))
	m.profiled.Set(float64(profiled))
	m.agents.Set(float64(agents))
	m.walUnsynced.Set(float64(unsynced))
}
