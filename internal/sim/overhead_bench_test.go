package sim_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/dtrace"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// The Options.DecisionTrace=nil hot path must cost one pointer check —
// compare BenchmarkSimTracingOff against BenchmarkSimTracingOn (in-memory
// recorder) and BenchmarkSimInvariantsOn (per-tick checker):
//
//	go test ./internal/sim/ -run '^$' -bench BenchmarkSim -count 5
func benchSim(b *testing.B, mkOpts func() sim.Options) {
	tr := randomTrace(xrand.New(7), 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.New(tr, sched.NewFIFO(), mkOpts()).Run()
		if res.Violations > 0 {
			b.Fatalf("violations: %v", res.ViolationSamples)
		}
	}
}

func BenchmarkSimTracingOff(b *testing.B) {
	benchSim(b, func() sim.Options { return sim.Options{Tick: 30, SchedulerEvery: 60} })
}

func BenchmarkSimTracingOn(b *testing.B) {
	benchSim(b, func() sim.Options {
		rec := dtrace.New()
		rec.SetKeep(0)
		return sim.Options{Tick: 30, SchedulerEvery: 60, DecisionTrace: rec}
	})
}

func BenchmarkSimInvariantsOn(b *testing.B) {
	benchSim(b, func() sim.Options {
		return sim.Options{Tick: 30, SchedulerEvery: 60,
			Invariants: sim.NewInvariantChecker(false)}
	})
}

// The Options.Chaos=nil hot path must likewise cost one pointer check per
// tick: compare BenchmarkSimChaosOff (no injector — should match
// BenchmarkSimTracingOff) against BenchmarkSimChaosOn (armed injector
// sampling every fault class at the calibrated rates).
func BenchmarkSimChaosOff(b *testing.B) {
	benchSim(b, func() sim.Options {
		return sim.Options{Tick: 30, SchedulerEvery: 60}
	})
}

func BenchmarkSimChaosOn(b *testing.B) {
	benchSim(b, func() sim.Options {
		return sim.Options{Tick: 30, SchedulerEvery: 60,
			Chaos: chaos.NewInjector(chaos.DefaultSpec())}
	})
}

// drainTrace emits n short jobs at an offered load the 32-GPU property
// cluster can absorb, so the trace fully drains well inside the horizon —
// unlike randomTrace, which deliberately overloads it.
func drainTrace(r *xrand.RNG, n int) *trace.Trace {
	tr := randomTrace(r, n)
	submit := int64(0)
	for _, j := range tr.Jobs {
		submit += r.Int63n(80)
		j.Submit = submit
		j.GPUs = 1 + int(r.Int63n(4))
		j.Duration = 30 + r.Int63n(600)
	}
	return tr
}

// BenchmarkSimLongTracePending runs a full long trace; the scheduler scans
// the queue every tick, so queue-scan cost is part of the end-to-end figure.
//
//	go test ./internal/sim/ -run '^$' -bench BenchmarkSimLongTracePending
func BenchmarkSimLongTracePending(b *testing.B) {
	tr := drainTrace(xrand.New(11), 2500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.New(tr, sched.NewFIFO(), sim.Options{Tick: 30, SchedulerEvery: 30}).Run()
		if res.Violations > 0 {
			b.Fatalf("violations: %v", res.ViolationSamples)
		}
	}
}

// The Options.Metrics=nil hot path must likewise cost one pointer check per
// phase: compare BenchmarkSimMetricsOff (should match BenchmarkSimTracingOff)
// against BenchmarkSimMetricsOn (live registry, atomic histogram cells).
func BenchmarkSimMetricsOff(b *testing.B) {
	benchSim(b, func() sim.Options {
		return sim.Options{Tick: 30, SchedulerEvery: 60}
	})
}

func BenchmarkSimMetricsOn(b *testing.B) {
	benchSim(b, func() sim.Options {
		return sim.Options{Tick: 30, SchedulerEvery: 60, Metrics: metrics.New()}
	})
}
