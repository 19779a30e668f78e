package sched

import (
	"testing"

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

// BenchmarkBaselineRoundDeepQueue times baseline scheduling rounds where the
// waiting set is what a round could cost: a third of Saturn's month (33,751
// jobs, 20 VCs) on a thirteenth of its nodes (one per VC, 160 GPUs), run
// under FIFO to mid-trace, where head-of-line blocking has over 7,000 jobs
// waiting in a dozen VCs. One iteration
// forks that state under the policy being timed and runs roundsPerOp forced
// rounds, ticks included (the shape of core's BenchmarkLucidRoundCongested).
// FIFO looks at each VC's head, SJF sorts every queue, Tiresias every queue
// and every running job.
//
//	go test ./internal/sched/ -run '^$' -bench BenchmarkBaselineRoundDeepQueue -benchtime 5x
func BenchmarkBaselineRoundDeepQueue(b *testing.B) {
	const roundsPerOp = 64
	spec := trace.Saturn()
	spec.Nodes, spec.NumJobs, spec.TargetLoad = spec.Nodes/13, spec.NumJobs/3, 4.0
	tr := trace.NewGenerator(spec).Emit(0)
	opts := sim.Options{Tick: 30, SchedulerEvery: 300}

	probe := &envProbe{Scheduler: NewFIFO()}
	mid := sim.New(tr, probe, opts)
	if done := mid.RunUntil(int64(spec.Days) * 86400 / 2); done {
		b.Fatal("run completed before mid-trace")
	}
	mid.StepOnce() // leaves probe.env on mid-trace state
	queued, vcs, running := 0, len(probe.env.Queues()), len(probe.env.Running())
	for _, q := range probe.env.Queues() {
		queued += len(q.Jobs)
	}
	if queued < 5000 || vcs < spec.NumVCs/2 {
		b.Fatalf("mid-trace queue is not deep: %d waiting in %d VCs", queued, vcs)
	}

	for _, mk := range []func() sim.Scheduler{
		func() sim.Scheduler { return NewFIFO() },
		func() sim.Scheduler { return NewSJF() },
		func() sim.Scheduler { return NewTiresias() },
	} {
		b.Run(mk().Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := mid.Fork(mk(), opts)
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
		})
	}
}
