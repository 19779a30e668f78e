package lab

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkHeliosMonth is the datacenter-scale run: the Helios-calibrated
// month (1,000,000 jobs, 10,000 GPUs, 40 VCs) under FIFO on the default
// (event) engine. TestEventEngineFastParity holds a shrunken copy of this
// world to the tick engine bit for bit. The numbers in EXPERIMENTS.md come from
//
//	go test ./internal/lab/ -run '^$' -bench BenchmarkHeliosMonth -benchtime 1x -timeout 30m
//
// About 1 GB of memory; not part of CI.
func BenchmarkHeliosMonth(b *testing.B) {
	spec := trace.Helios()
	tr := trace.NewGenerator(spec).Emit(spec.NumJobs)
	opts := sim.Options{Tick: 60, SchedulerEvery: 60, SampleEvery: 600}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.New(tr, sched.NewFIFO(), opts).Run()
		b.Logf("%d of %d jobs finished, avg JCT %.4f h", len(tr.Jobs)-res.Unfinished-res.FailedJobs,
			len(tr.Jobs), res.AvgJCTHours())
	}
}
