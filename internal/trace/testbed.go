package trace

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestbedSpec returns the §4.2 physical cluster: 4 servers × 8 RTX 3090
// GPUs, one VC.
func TestbedSpec() cluster.Spec {
	return cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
		VCs: []cluster.VCSpec{{Name: "testbed", Nodes: 4}}}
}

// StaticTestbed generates the §4.2 static trace: numJobs (100 in the paper)
// jobs all available at time 0, sampled Venus-like. Used for the makespan
// comparison of Table 3.
func StaticTestbed(numJobs int, seed uint64) *Trace {
	rng, gpuW := xrand.New(seed), xrand.NewChoiceTable(testbedGPUW)
	jobs := make([]*job.Job, 0, numJobs)
	for i := 0; i < numJobs; i++ {
		jobs = append(jobs, testbedJob(i+1, 0, rng, gpuW, false))
	}
	sortBySubmit(jobs)
	return &Trace{Name: "testbed-static", Cluster: TestbedSpec(), Jobs: jobs, Days: 1}
}

// ContinuousTestbed generates the §4.2 continuous trace: numJobs (120 in the
// paper) jobs arriving as a Poisson process with the given mean inter-
// arrival gap, sampling "more long-term jobs" per the paper. Used for the
// average-JCT comparison of Table 3.
func ContinuousTestbed(numJobs int, meanGapSec float64, seed uint64) *Trace {
	rng, gpuW := xrand.New(seed), xrand.NewChoiceTable(testbedGPUW)
	jobs := make([]*job.Job, 0, numJobs)
	t := 0.0
	for i := 0; i < numJobs; i++ {
		t += rng.Exp(meanGapSec)
		jobs = append(jobs, testbedJob(i+1, int64(t), rng, gpuW, true))
	}
	sortBySubmit(jobs)
	return &Trace{Name: "testbed-continuous", Cluster: TestbedSpec(), Jobs: jobs, Days: 1}
}

// testbedGPUW weights gpuDemands for the 32-GPU testbed: at most 8 GPUs.
var testbedGPUW = []float64{0.55, 0.20, 0.15, 0.10, 0, 0}

// testbedJob samples one Venus-flavored job for the 32-GPU testbed; gpuW is
// a table over testbedGPUW.
func testbedJob(id int, submit int64, rng *xrand.RNG, gpuW *xrand.ChoiceTable, longBias bool) *job.Job {
	gpus := gpuDemands[gpuW.Draw(rng)]
	var dur float64
	pDebug := 0.35
	if longBias {
		pDebug = 0.2
	}
	if rng.Bool(pDebug) {
		dur = clampF(rng.LogNormal(math.Log(90), 0.8), 20, 600)
	} else {
		median := 1800.0
		if longBias {
			median = 3000
		}
		dur = clampF(rng.LogNormal(math.Log(median), 0.8), 300, 6*3600)
	}

	heavy := rng.Bool(0.3) || gpus >= 8
	var m workload.Model
	if heavy {
		m = heavyModels[rng.Intn(len(heavyModels))]
	} else {
		m = lightModels[rng.Intn(len(lightModels))]
	}
	batches := m.BatchSizes()
	cfg := workload.Config{Model: m, BatchSize: batches[rng.Intn(len(batches))]}
	if m.AMPAllowed() && rng.Bool(0.3) {
		cfg.AMP = true
	}
	return job.New(id, "tb-job", "tb-user", "testbed", gpus, submit, int64(dur), cfg)
}

// PolluxTrace generates the §4.7 comparison workload: a 160-job base trace
// (intensity 1.0) whose submission rate scales with intensity (0.5×–2.5× in
// Figure 14a), on a 64-GPU cluster.
func PolluxTrace(intensity float64, seed uint64) *Trace {
	if intensity <= 0 {
		intensity = 1
	}
	rng, gpuW := xrand.New(seed), xrand.NewChoiceTable(testbedGPUW)
	numJobs := 160
	baseGap := 180.0 // seconds between submissions at intensity 1.0
	jobs := make([]*job.Job, 0, numJobs)
	t := 0.0
	for i := 0; i < numJobs; i++ {
		t += rng.Exp(baseGap / intensity)
		j := testbedJob(i+1, int64(t), rng, gpuW, true)
		j.VC = "pollux"
		jobs = append(jobs, j)
	}
	sortBySubmit(jobs)
	return &Trace{
		Name: "pollux-trace",
		Cluster: cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
			VCs: []cluster.VCSpec{{Name: "pollux", Nodes: 8}}},
		Jobs: jobs,
		Days: 1,
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
