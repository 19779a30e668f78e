package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units and directions; bench_test.go holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share by which an end-to-end median may worsen before a
	// change is rejected (0 for per-layer metrics, which are not gated).
	bound float64
}

// endToEnd are the four numbers every workload reports from its untraced
// run: what a user of lucidsim/lucidbench or an agent talking to lucidd sees.
//
// The bounds follow the measured noise, not the other way round. On the
// 2-core shared VM this was built on, one identical Lucid month repeated 40
// times in one process takes 2.53–3.70 s, in slow swells that last tens of
// seconds, so ten runs of a timing metric spread (interquartile
// range over median) by 5–13 %; a gate must sit well above that or it rejects
// unchanged code. 0.25 is the widest the contract allows. NOISE.md has the
// numbers; tighten these when the benchmark runs on a quieter host.
//
// There is no gated p90. A high percentile of a distribution with more than
// one mode sits on a mode boundary (a heartbeat ack that has to wake its
// applier, a read whose barrier meets a slow fsync), and when the host slows
// the share of the slow mode crosses it: the p90 of the same code then reads
// 4.7 or 8.5 µs. The p90s are per-layer metrics instead, printed and ungated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the numbers a traced run reports, ungated. A workload that
// does not execute a layer reports 0 for it. README.md says which end-to-end
// metric each one should move, and on which workload.
var perLayer = []metricDef{
	// World build (sim workloads): the parts of setup_s.
	{"trace.emit_s", "s", "lower", 0},
	{"core.train_analyzer_s", "s", "lower", 0},
	{"core.train_estimator_s", "s", "lower", 0},
	{"core.train_throughput_s", "s", "lower", 0},
	{"lab.gbdt_estimator_s", "s", "lower", 0},
	{"feat.duration_dataset_s", "s", "lower", 0},
	{"ml.gbdt_fit_s", "s", "lower", 0},
	{"ml.dtree_fit_s", "s", "lower", 0},
	{"ml.textdist_levenshtein_ns", "ns", "lower", 0},
	// Sim run, per repetition (median over repetitions).
	{"sim.run_s", "s", "lower", 0},
	{"sim.first_rep_s", "s", "lower", 0},
	{"sched.rounds", "count", "lower", 0},
	{"sched.round_total_s", "s", "lower", 0},
	{"sim.engine_self_s", "s", "lower", 0},
	{"sim.phase_advance_s", "s", "lower", 0},
	{"sim.phase_speeds_s", "s", "lower", 0},
	{"sim.phase_chaos_s", "s", "lower", 0},
	{"core.refit_rounds", "count", "lower", 0},
	{"core.refit_total_s", "s", "lower", 0},
	{"core.refit_round_p50_ms", "ms", "lower", 0},
	{"core.light_round_total_s", "s", "lower", 0},
	{"sched.round_p90_us", "us", "lower", 0},
	{"sched.round_p99_us", "us", "lower", 0},
	{"sched.round_max_ms", "ms", "lower", 0},
	// Simulated statistics: exact, identical across repetitions.
	{"sim.jobs_finished", "count", "higher", 0},
	{"sim.avg_jct_h", "h", "lower", 0},
	{"sim.avg_queue_h", "h", "lower", 0},
	{"sim.p999_queue_h", "h", "lower", 0},
	{"sim.shared_starts", "count", "higher", 0},
	// Control plane (ctl workloads).
	{"lucidd.boot_s", "s", "lower", 0},
	{"lucidd.preload_s", "s", "lower", 0},
	{"lucidd.post_agents_p90_us", "us", "lower", 0},
	{"lucidd.post_agents_p99_us", "us", "lower", 0},
	{"lucidd.post_metrics_p50_us", "us", "lower", 0},
	{"lucidd.post_jobs_p50_ms", "ms", "lower", 0},
	{"lucidd.post_jobs_p90_ms", "ms", "lower", 0},
	{"lucidd.flush_p50_ms", "ms", "lower", 0},
	{"lucidd.backpressure_waits", "count", "lower", 0},
	{"lucidd.get_schedule_vc_p50_ms", "ms", "lower", 0},
	{"lucidd.get_agents_vc_p50_ms", "ms", "lower", 0},
	{"lucidd.get_schedule_global_p50_ms", "ms", "lower", 0},
	{"lucidd.get_schedule_global_p90_ms", "ms", "lower", 0},
	{"lucidd.get_schedule_global_p99_ms", "ms", "lower", 0},
	{"lucidd.read_bytes_per_op", "B", "lower", 0},
	{"lucidd.read_barrier_p50_ms", "ms", "lower", 0},
	{"lucidd.read_merge_encode_p50_ms", "ms", "lower", 0},
	// lucidd's own instruments, scraped before and after the timed section.
	{"lucidd.ingest_applied", "count", "higher", 0},
	{"lucidd.ingest_rejected_429", "count", "lower", 0},
	{"lucidd.ingest_batch_mean_ops", "count", "higher", 0},
	{"snap.wal_append_count", "count", "lower", 0},
	{"snap.wal_append_total_s", "s", "lower", 0},
	{"snap.wal_fsync_count", "count", "lower", 0},
	{"snap.wal_fsync_total_s", "s", "lower", 0},
	{"lucidd.compactions", "count", "lower", 0},
	{"lucidd.snapshot_total_s", "s", "lower", 0},
	// The disk and the transport on their own.
	{"snap.wal_append_us", "us", "lower", 0},
	{"snap.wal_fsync_ms", "ms", "lower", 0},
	{"net.roundtrip_p50_us", "us", "lower", 0},
	// Process and host.
	{"go.alloc_mb", "MB", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_total_ms", "ms", "lower", 0},
	{"host.calib_mops", "Mop/s", "higher", 0},
	{"host.calib_after_mops", "Mop/s", "higher", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
}

// result is one workload run.
type result struct {
	cfg         runCfg
	env         envBlock
	vals        map[string]float64
	attempted   int // operations (scheduler rounds, requests) plus output checks
	failed      int
	problems    []string  // failed output checks, in order
	repThr      []float64 // each timed repetition's throughput, in order
	fingerprint string    // sim workloads: hash of every job's simulated outcome
}

var knownMetric = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range endToEnd {
		m[d.name] = true
	}
	for _, d := range perLayer {
		m[d.name] = true
	}
	return m
}()

// set records a metric. Only names in the tables above exist.
func (r *result) set(name string, v float64) {
	if !knownMetric[name] {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is not finite", name)
		v = 0
	}
	r.vals[name] = v
}

// check counts one output check and records its message when it fails.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 }

// reported is the table the run's variant reports: end-to-end metrics come
// from the untraced run only, per-layer metrics from the traced one.
func (r *result) reported() []metricDef {
	if r.cfg.traced {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable report and, as the last line, the one JSON
// object the driver reads.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  k %d  traced %v\n", r.cfg.workload, r.cfg.seed, r.env.Reps, r.cfg.traced)
	for _, d := range r.reported() {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, r.vals[d.name], d.unit)
	}
	fmt.Fprintf(w, "  throughput_per_s by repetition %.6g\n", r.repThr)
	if r.fingerprint != "" {
		fmt.Fprintf(w, "  fingerprint %s\n", r.fingerprint)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	env, _ := json.Marshal(struct {
		Workload    string   `json:"workload"`
		Fingerprint string   `json:"fingerprint,omitempty"`
		Env         envBlock `json:"env"`
	}{r.cfg.workload, r.fingerprint, r.env}) // plain data: cannot fail
	fmt.Fprintf(w, "env %s\n", env)
	fmt.Fprintln(w, r.jsonLine(r.reported()))
}

// jsonLine renders the driver's result object: exactly correct, attempted,
// failed and metrics, the metrics being those of defs.
func (r *result) jsonLine(defs []metricDef) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`, r.correct(), r.attempted, r.failed)
	for i, d := range defs {
		if i > 0 {
			sb.WriteString(", ")
		}
		val, _ := json.Marshal(r.vals[d.name]) // finite float: cannot fail
		fmt.Fprintf(&sb, `%q: {"value": %s, "unit": %q}`, d.name, val, d.unit)
	}
	sb.WriteString("}}")
	return sb.String()
}
