package sim

import "repro/internal/metrics"

// Engine observability: when Options.Metrics is set, every tick records its
// phase timings (progress integration, fault injection, scheduler
// invocation, speed recompute) and every scheduler call its decision
// latency — the live, scrapeable counterpart of the paper's Figure 10a
// latency distributions. Like Options.DecisionTrace and Options.Chaos, a nil
// registry costs the hot path only nil checks: timings are wall-clock
// observations and never feed back into simulation state, so golden
// decision-trace digests are byte-identical with metrics on or off
// (TestMetricsDoNotPerturbDecisions pins this).

// simMetrics holds the engine's pre-registered instruments, resolved once in
// New so the tick loop never touches the registry's maps.
type simMetrics struct {
	reg *metrics.Registry

	ticks     *metrics.Counter // sim_ticks_total
	schedRuns *metrics.Counter // sim_sched_invocations_total

	advance *metrics.Histogram // sim_phase_seconds{phase="advance"}
	chaos   *metrics.Histogram // sim_phase_seconds{phase="chaos"}
	speeds  *metrics.Histogram // sim_phase_seconds{phase="speeds"}
	decide  *metrics.Histogram // sim_sched_decision_seconds

	queueDepth *metrics.Gauge // sim_queue_depth (pending+queued at last sched call)
	runningNow *metrics.Gauge // sim_running_jobs
}

// phaseBuckets spans 100ns–~400ms: a tick phase on even the largest traces
// sits well inside it, and sub-microsecond resolution keeps the cheap phases
// (chaos off, small clusters) distinguishable from zero.
func phaseBuckets() []float64 { return metrics.ExpBuckets(1e-7, 2, 22) }

// newSimMetrics resolves the engine instruments on reg (nil → nil).
func newSimMetrics(reg *metrics.Registry) *simMetrics {
	if reg == nil {
		return nil
	}
	phases := reg.HistogramVec("sim_phase_seconds",
		"Wall-clock seconds per engine tick phase.", phaseBuckets(), "phase")
	return &simMetrics{
		reg:       reg,
		ticks:     reg.Counter("sim_ticks_total", "Engine ticks executed."),
		schedRuns: reg.Counter("sim_sched_invocations_total", "Scheduler Tick calls."),
		advance:   phases.With("advance"),
		chaos:     phases.With("chaos"),
		speeds:    phases.With("speeds"),
		decide: reg.Histogram("sim_sched_decision_seconds",
			"Wall-clock latency of one scheduler invocation (Figure 10a).", phaseBuckets()),
		queueDepth: reg.Gauge("sim_queue_depth",
			"Schedulable jobs (Pending+Queued) observed at the last scheduler call."),
		runningNow: reg.Gauge("sim_running_jobs", "Jobs running on the main cluster."),
	}
}

// timedPhase selects which instrument a time() call feeds.
type timedPhase int

const (
	timeAdvance timedPhase = iota
	timeChaos
	timeSpeeds
	timeDecide
)

// time starts a timer for the phase. On a nil receiver (metrics off) it
// returns an inert Timer whose Stop is a no-op — the tick loop pays one nil
// check per phase and nothing else.
func (m *simMetrics) time(p timedPhase) metrics.Timer {
	if m == nil {
		return metrics.Timer{}
	}
	switch p {
	case timeAdvance:
		return m.reg.StartTimer(m.advance)
	case timeChaos:
		return m.reg.StartTimer(m.chaos)
	case timeSpeeds:
		return m.reg.StartTimer(m.speeds)
	default:
		return m.reg.StartTimer(m.decide)
	}
}

// observeSchedState updates the population gauges after a scheduler call.
func (s *Sim) observeSchedState() {
	m := s.met
	if m == nil {
		return
	}
	m.queueDepth.Set(float64(s.waitingCount()))
	m.runningNow.Set(float64(len(s.running.jobs)))
}

// Metrics returns the run's registry, nil when metrics are off. A scheduler
// may register its own instruments on it; like the engine's, they observe
// and never steer.
func (e *Env) Metrics() *metrics.Registry { return e.s.opts.Metrics }
