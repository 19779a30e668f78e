package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/lab"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// envProbe keeps the Env the engine hands the scheduler, so the benchmark
// can report the queue and resident population a round works over.
type envProbe struct {
	sim.Scheduler
	env *sim.Env
}

func (p *envProbe) Tick(env *sim.Env) {
	p.env = env
	p.Scheduler.Tick(env)
}

// BenchmarkLucidRoundCongested times Lucid scheduling rounds in the regime
// where they are expensive: a Saturn×0.05 month at 0.95 offered load
// (bench/'s lucid_congested, shrunk; static models, so no refit lands in a
// round) run to mid-trace, where the queue is long and the cluster full. One
// iteration forks that state and times roundsPerOp forced rounds — ticks
// included, as in Fig 10a — so -benchtime 1x is already a few hundred rounds.
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkLucidRoundCongested -benchtime 5x
func BenchmarkLucidRoundCongested(b *testing.B) {
	const roundsPerOp = 256
	spec := trace.Saturn()
	spec.TargetLoad = 0.95
	w, err := lab.BuildWorld(spec, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.UpdateIntervalSec = 0
	opts := lab.LucidOpts(w.Spec)

	probe := &envProbe{Scheduler: w.NewLucid(cfg)}
	mid := sim.New(w.Eval, probe, opts)
	if done := mid.RunUntil(int64(w.Spec.Days) * 86400 / 2); done {
		b.Fatal("run completed before mid-trace")
	}
	mid.StepOnce() // leaves probe.env on mid-trace state
	queue, residents := 0, len(probe.env.Running())
	for _, q := range probe.env.Queues() {
		queue += len(q.Jobs)
	}
	if queue == 0 || residents == 0 {
		b.Fatalf("mid-trace state is not congested: %d queued, %d running", queue, residents)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := mid.Fork(w.NewLucid(cfg), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for r := 0; r < roundsPerOp; r++ {
			s.StepOnce()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*roundsPerOp)/1e3, "µs/round")
	b.ReportMetric(float64(queue), "queued")
	b.ReportMetric(float64(residents), "running")
}

// BenchmarkLucidRoundDeepQueue times Lucid rounds over the deep queue of
// sched's BenchmarkBaselineRoundDeepQueue: the same FIFO mid-trace state
// (over 7,000 jobs waiting in a dozen VCs on 160 GPUs), forked under Lucid
// with static models and no profiling partition, so that its first round
// observes every waiting job on the fly and all of them are Queued —
// Algorithm 2 ordering and placing thousands of jobs a round, the regime of
// the paper's Fig 10a. That first round is run once, untimed; one iteration
// forks its result and times roundsPerOp forced rounds, ticks included.
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkLucidRoundDeepQueue -benchtime 5x
func BenchmarkLucidRoundDeepQueue(b *testing.B) {
	const roundsPerOp = 64
	spec := trace.Saturn()
	spec.Nodes, spec.NumJobs, spec.TargetLoad = spec.Nodes/13, spec.NumJobs/3, 4.0
	g := trace.NewGenerator(spec)
	tr := g.Emit(0)
	models, err := core.TrainModels(g.Emit(5000), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.UpdateIntervalSec = 0
	opts := sim.Options{Tick: 30, SchedulerEvery: 300}

	fifo := sim.New(tr, sched.NewFIFO(), opts)
	if done := fifo.RunUntil(int64(spec.Days) * 86400 / 2); done {
		b.Fatal("run completed before mid-trace")
	}
	probe := &envProbe{Scheduler: core.New(models.Clone(), cfg)}
	mid, err := fifo.Fork(probe, opts)
	if err != nil {
		b.Fatal(err)
	}
	mid.StepOnce() // Lucid's first round: every waiting job observed and Queued
	queued, running := 0, len(probe.env.Running())
	for _, q := range probe.env.Queues() {
		for _, j := range q.Jobs {
			if j.State == job.Queued {
				queued++
			}
		}
	}
	if queued < 5000 {
		b.Fatalf("mid-trace queue is not deep: %d Queued", queued)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := mid.Fork(core.New(models.Clone(), cfg), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for r := 0; r < roundsPerOp; r++ {
			s.StepOnce()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*roundsPerOp)/1e3, "µs/round")
	b.ReportMetric(float64(queued), "queued")
	b.ReportMetric(float64(running), "running")
}
