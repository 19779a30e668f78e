package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lab"
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
	queue, residents := len(probe.env.Pending()), len(probe.env.Running())
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
