package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// simWorkload replays one Saturn×0.2 evaluation month (20,250 jobs on 408
// GPUs) under a fixed list of schedulers, once per repetition.
type simWorkload struct {
	// targetLoad overrides the generator's offered-load cap (0 keeps 0.45).
	targetLoad float64
	// repSeconds is one repetition's wall time on the reference box; with
	// -seconds it fixes the repetition count, so the work is fixed too.
	repSeconds float64
	// runs lists what one repetition simulates, on fresh scheduler
	// instances. Latency is taken over the last entry's rounds only.
	runs func(w *lab.World) []lab.NamedRun
}

// refitFloor separates Update Engine rounds (a GAM refit, 0.5–1 s) from
// ordinary rounds (microseconds, 12 ms at worst under congestion); nothing
// sits between the two.
const refitFloor = 50 * time.Millisecond

func lucidRuns(cfg core.Config) func(w *lab.World) []lab.NamedRun {
	return func(w *lab.World) []lab.NamedRun {
		return []lab.NamedRun{{Name: "Lucid", Sched: w.NewLucid(cfg), Opts: lab.LucidOpts(w.Spec)}}
	}
}

// staticLucid is the paper's §4.5(3) ablation: models trained once, never
// refit.
func staticLucid() core.Config {
	cfg := core.DefaultConfig()
	cfg.UpdateIntervalSec = 0
	return cfg
}

func baselineRuns(w *lab.World) []lab.NamedRun {
	var out []lab.NamedRun
	for _, nr := range w.Schedulers() {
		if nr.Name != "Lucid" {
			out = append(out, nr)
		}
	}
	return out
}

// jitterEvery is how many jobs the seed leaves alone for each one it moves.
const jitterEvery = 1000

// jitterSubmits derives the evaluation month from the seed: about one job in
// jitterEvery (some twenty of 20,250) has its submit time moved by up to one
// engine tick either way, and the month is re-sorted. Different seeds so give
// different arrival orders, queueing decisions and fingerprints, while the
// month keeps its users, templates, per-VC load and diurnal shape and costs
// about the same to simulate. The perturbation is this small on purpose: at
// 0.95 offered load the schedule is chaotic, and moving every job by a tick
// changes a month's cost by ±15 % (round p90 67–100 µs) — as does re-seeding
// the generator, which redraws users and VC skew (FIFO's month then costs
// 0.27–1.46 s). That would measure the draw, not the code.
func jitterSubmits(tr *trace.Trace, seed uint64, tick int64) *trace.Trace {
	r := xrand.New(seed)
	out := *tr
	out.Jobs = make([]*job.Job, len(tr.Jobs))
	for i, j := range tr.Jobs {
		cp := *j
		if r.Intn(jitterEvery) == 0 {
			cp.Submit += r.Int63n(2*tick+1) - tick
			if cp.Submit < 0 {
				cp.Submit = 0
			}
		}
		out.Jobs[i] = &cp
	}
	sort.SliceStable(out.Jobs, func(a, b int) bool { return out.Jobs[a].Submit < out.Jobs[b].Submit })
	return &out
}

// timedSched times every scheduler round from outside. It forwards NextWake:
// a wrapper that hid sim.EventAware would make the event engine stop eliding
// no-op rounds and silently change the work being measured.
type timedSched struct {
	inner  sim.Scheduler
	wake   sim.EventAware
	lat    *samples // nil outside the latency class
	tr     *tracer
	rounds int
	total  time.Duration
}

func newTimedSched(inner sim.Scheduler, lat *samples, tr *tracer) (*timedSched, error) {
	wake, ok := inner.(sim.EventAware)
	if !ok {
		return nil, fmt.Errorf("bench: scheduler %s is not sim.EventAware; wrapping it would change round elision", inner.Name())
	}
	return &timedSched{inner: inner, wake: wake, lat: lat, tr: tr}, nil
}

func (t *timedSched) Name() string { return t.inner.Name() }

func (t *timedSched) Tick(env *sim.Env) {
	start := time.Now()
	t.inner.Tick(env)
	end := time.Now()
	d := end.Sub(start)
	t.rounds++
	t.total += d
	if t.lat != nil {
		t.lat.add(d)
		t.tr.leaf("sched.round", start, end)
	}
}

func (t *timedSched) NextWake(env *sim.Env) int64 { return t.wake.NextWake(env) }

// simRep is what one repetition produced.
type simRep struct {
	runSec      float64 // Σ Run() wall time
	rounds      int     // scheduler rounds, all schedulers
	roundSec    float64 // Σ time inside Scheduler.Tick (wrapped reps only)
	classRounds int     // rounds of the latency class
	finished    int
	unfinished  int
	fingerprint uint64
	phases      map[string]float64 // engine phase seconds (instrumented reps only)
	last        *sim.Result
}

// rep runs the workload's scheduler list once. wrapped=false runs the bare
// schedulers and counts rounds from the engine's own counter instead: the
// reference the wrapped repetitions must match. instrument attaches a
// metrics registry to read the engine's phase timers.
func (s simWorkload) rep(w *lab.World, wrapped, instrument bool, lat *samples, tr *tracer) (simRep, error) {
	out := simRep{phases: map[string]float64{}}
	h := fnv.New64a()
	runs := s.runs(w)
	for i, nr := range runs {
		opts := nr.Opts
		opts.Engine = sim.EngineEvent
		if instrument {
			opts.Metrics = metrics.New()
		}
		sched := nr.Sched
		var ts *timedSched
		if wrapped {
			var classLat *samples
			if i == len(runs)-1 {
				classLat = lat
			}
			var err error
			if ts, err = newTimedSched(nr.Sched, classLat, tr); err != nil {
				return out, err
			}
			sched = ts
		}
		id := tr.begin("sim.new")
		sm := sim.New(w.Eval, sched, opts)
		tr.end(id)

		id = tr.begin("sim.run")
		start := time.Now()
		res := sm.Run()
		out.runSec += time.Since(start).Seconds()
		tr.end(id)

		rounds := 0
		if instrument {
			prom := parseProm(opts.Metrics.Render())
			rounds = int(prom["sim_sched_invocations_total"])
			for _, p := range []string{"advance", "speeds", "chaos"} {
				out.phases[p] += prom[`sim_phase_seconds_sum{phase="`+p+`"}`]
			}
		}
		if ts != nil {
			rounds = ts.rounds
			out.roundSec += ts.total.Seconds()
		}
		out.rounds += rounds
		if i == len(runs)-1 {
			out.classRounds = rounds
			out.last = res
		}

		id = tr.begin("bench.fingerprint")
		fingerprintInto(h, res)
		tr.end(id)
		out.unfinished += res.Unfinished + res.FailedJobs
		out.finished += len(res.Jobs) - res.Unfinished - res.FailedJobs
	}
	out.fingerprint = h.Sum64()
	return out, nil
}

// fingerprintInto folds every job's outcome into h: two runs agree on the
// fingerprint only if they made the same placements at the same times.
func fingerprintInto(h io.Writer, res *sim.Result) {
	var buf [40]byte
	for _, j := range res.Jobs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(j.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(j.FirstStart))
		binary.LittleEndian.PutUint64(buf[16:], uint64(j.Finish))
		binary.LittleEndian.PutUint64(buf[24:], uint64(j.Preemptions))
		binary.LittleEndian.PutUint64(buf[32:], uint64(j.Restarts))
		_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
	}
}

func (s simWorkload) run(cfg runCfg, r *result, tr *tracer) error {
	spec := trace.Saturn()
	spec.TargetLoad = s.targetLoad
	scale := 0.2
	if cfg.tiny {
		scale = 0.01
	}
	reps := cfg.reps(s.repSeconds)
	if tr != nil && reps >= 5 {
		reps -= 2 // worldBuildLayers takes their place in the run's time budget
	}
	r.env.Reps = reps

	start := time.Now()
	w, err := lab.BuildWorld(spec, scale)
	if err != nil {
		return err
	}
	r.set("setup_s", time.Since(start).Seconds())
	w.Eval = jitterSubmits(w.Eval, cfg.seed, lab.SimOpts().Tick)

	// Warm-up repetition, untimed: bare schedulers with the engine's own
	// instruments on. It fills caches and is the reference for the output
	// checks below.
	ref, err := s.rep(w, false, true, nil, nil)
	if err != nil {
		return err
	}
	r.set("sim.first_rep_s", ref.runSec)
	r.fingerprint = fmt.Sprintf("%016x", ref.fingerprint)
	r.check(ref.unfinished == 0, "warm-up left %d jobs unfinished", ref.unfinished)

	lat := newSamples(ref.classRounds*reps + 1024)
	refits := newSamples(64 * reps)
	var runSec, rounds, roundSec, engineSec, refitN, refitSec, lightSec []float64
	phases := map[string][]float64{}
	var last simRep
	err = timedReps(reps, tr, r, func(i int, repTr *tracer) (float64, error) {
		before := lat.count()
		out, err := s.rep(w, true, repTr != nil, lat, repTr)
		if err != nil {
			return 0, err
		}
		last = out
		r.attempted += out.rounds
		r.check(out.fingerprint == ref.fingerprint,
			"repetition %d fingerprint %016x differs from the unwrapped warm-up's %016x", i, out.fingerprint, ref.fingerprint)
		r.check(out.rounds == ref.rounds,
			"repetition %d ran %d scheduler rounds, the unwrapped warm-up %d", i, out.rounds, ref.rounds)
		r.check(out.unfinished == 0, "repetition %d left %d jobs unfinished", i, out.unfinished)

		runSec = append(runSec, out.runSec)
		rounds = append(rounds, float64(out.rounds))
		roundSec = append(roundSec, out.roundSec)
		engineSec = append(engineSec, out.runSec-out.roundSec)
		for p, v := range out.phases {
			phases[p] = append(phases[p], v)
		}
		var n, heavy, light float64
		for _, ns := range lat.ns[before:] {
			if d := time.Duration(ns); d > refitFloor {
				n++
				heavy += d.Seconds()
				refits.add(d)
			} else {
				light += d.Seconds()
			}
		}
		refitN = append(refitN, n)
		refitSec = append(refitSec, heavy)
		lightSec = append(lightSec, light)
		return float64(out.finished) / out.runSec, nil
	})
	if err != nil {
		return err
	}
	r.env.OpCounts["jobs_per_repetition"] = last.finished
	r.env.OpCounts["rounds_per_repetition"] = last.rounds
	r.env.OpCounts["latency_samples"] = lat.count()

	r.set("latency_p50_ms", lat.percentile(0.50)/1e6)

	r.set("sim.run_s", median(runSec))
	r.set("sched.rounds", median(rounds))
	r.set("sched.round_total_s", median(roundSec))
	r.set("sim.engine_self_s", median(engineSec))
	for p, vs := range phases {
		r.set("sim.phase_"+p+"_s", median(vs))
	}
	r.set("core.refit_rounds", median(refitN))
	r.set("core.refit_total_s", median(refitSec))
	r.set("core.refit_round_p50_ms", refits.percentile(0.50)/1e6)
	r.set("core.light_round_total_s", median(lightSec))
	r.set("sched.round_p90_us", lat.percentile(0.90)/1e3)
	r.set("sched.round_p99_us", lat.percentile(0.99)/1e3)
	r.set("sched.round_max_ms", lat.percentile(1)/1e6)

	r.set("sim.jobs_finished", float64(last.finished))
	r.set("sim.avg_jct_h", last.last.AvgJCTSec/3600)
	r.set("sim.avg_queue_h", last.last.AvgQueueSec/3600)
	r.set("sim.p999_queue_h", last.last.P999QueueSec/3600)
	r.set("sim.shared_starts", float64(last.last.SharedStarts))
	if tr != nil {
		return worldBuildLayers(w, r, tr)
	}
	return nil
}

// timedReps runs the timed repetitions and reports throughput_per_s, the
// median repetition's. one runs repetition i and returns its throughput. In a
// traced run every other repetition is handed a nil tracer and stays
// untraced, so the run itself measures what tracing costs
// (bench.trace_overhead_share); each traced repetition gets a root span.
func timedReps(reps int, tr *tracer, r *result, one func(i int, tr *tracer) (float64, error)) error {
	var traced, plain []float64
	for i := 0; i < reps; i++ {
		repTr := tr
		if i%2 == 1 {
			repTr = nil
		}
		if repTr != nil {
			repTr.rep = i
		}
		root := repTr.begin("rep")
		thr, err := one(i, repTr)
		repTr.end(root)
		if err != nil {
			return err
		}
		r.repThr = append(r.repThr, thr)
		if repTr != nil {
			traced = append(traced, thr)
		} else {
			plain = append(plain, thr)
		}
	}
	r.set("throughput_per_s", median(r.repThr))
	if tr != nil && len(plain) > 0 {
		r.set("bench.trace_overhead_share", 1-median(traced)/median(plain))
	}
	return nil
}
