package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestTiresiasPromoteRescuesStarvedJob(t *testing.T) {
	// A demoted long job under a constant stream of short arrivals: without
	// PROMOTE it would starve all day; with it, the job finishes within the
	// promote interval plus its remaining runtime.
	var jobs []*job.Job
	jobs = append(jobs, mk(1, 8, 0, 3*3600)) // demotes after 3600 GPU-s (8 GPUs → 450 s)
	id := 2
	for s := int64(500); s < 4*3600; s += 240 {
		jobs = append(jobs, mk(id, 8, s, 200))
		id++
	}
	tr := &trace.Trace{Name: "starve", Cluster: specOneNode(), Jobs: jobs, Days: 1}
	tir := NewTiresias()
	tir.promoteSec = 2 * 3600
	res := sim.New(tr, tir, sim.Options{Tick: 10, SchedulerEvery: 30}).Run()
	long := res.Jobs[0]
	if long.Finish < 0 {
		t.Fatal("long job never finished")
	}
	if long.Preemptions == 0 {
		t.Fatal("long job was never demoted/preempted — scenario broken")
	}
	// The stream ends at 4 h; the long job must finish within its remaining
	// runtime plus bounded thrash after that (LAS grinds under contention —
	// that is Tiresias's documented weakness — but must not starve forever).
	if long.JCT() > 9*3600 {
		t.Fatalf("long job took %d s; starvation guard failed", long.JCT())
	}
}

func TestTiresiasDeterministic(t *testing.T) {
	run := func() float64 {
		return sim.New(holTrace(), NewTiresias(), sim.Options{Tick: 10, SchedulerEvery: 30}).Run().AvgJCTSec
	}
	if run() != run() {
		t.Fatal("Tiresias runs are not deterministic")
	}
}

func TestHorusRespectsMemoryGuard(t *testing.T) {
	// Two BERT-sized jobs (16.5 GB each) cannot pack on 24 GB GPUs even
	// with optimistic predictions.
	cfg := workload.Config{Model: workload.BERT, BatchSize: 32}
	j1 := job.New(1, "b1", "u", "vc", 8, 0, 4000, cfg)
	j2 := job.New(2, "b2", "u", "vc", 8, 0, 4000, cfg)
	tr := &trace.Trace{Name: "mem", Cluster: specOneNode(), Jobs: []*job.Job{j1, j2}, Days: 1}
	res := sim.New(tr, NewHorus(OracleEstimator{}, 3), sim.Options{Tick: 10, SchedulerEvery: 30}).Run()
	if res.SharedStarts != 0 {
		t.Fatalf("Horus packed %d OOM pairs", res.SharedStarts)
	}
	if res.Unfinished != 0 {
		t.Fatal("jobs did not finish")
	}
}

func TestOracleEstimator(t *testing.T) {
	j := mk(1, 2, 0, 1234)
	if got := (OracleEstimator{}).EstimateSec(j); got != 1234 {
		t.Fatalf("oracle estimate = %v", got)
	}
}

// TestSortHelpersDeterministic: rankBy puts jobs in the order sort.SliceStable
// gives them under the comparison-time key (stableSortBy, the reference), for
// tie-heavy keys, equal submits and NaN/±Inf keys, and breaks a full tie by
// (submit, id).
func TestSortHelpersDeterministic(t *testing.T) {
	a := []*job.Job{mk(3, 1, 5, 10), mk(1, 1, 5, 10), mk(2, 1, 3, 10)}
	r := rankBy(nil, a, func(j *job.Job) float64 { return 0 }) // all equal keys
	if r[0].j.ID != 2 || r[1].j.ID != 1 || r[2].j.ID != 3 {
		t.Fatalf("tie-break order wrong: %d %d %d", r[0].j.ID, r[1].j.ID, r[2].j.ID)
	}

	keys := []float64{0, 1, 2, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e12}
	rng := rand.New(rand.NewSource(7))
	var buf []ranked
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(120)
		jobs := make([]*job.Job, n)
		key := map[int]float64{}
		for i, id := range rng.Perm(n) {
			jobs[i] = mk(id, 1, int64(rng.Intn(4)), 10)
			key[id] = keys[rng.Intn(len(keys))]
		}
		byKey := func(j *job.Job) float64 { return key[j.ID] }
		want := slices.Clone(jobs)
		stableSortBy(want, byKey)
		buf = rankBy(buf, jobs, byKey)
		for i, r := range buf {
			if r.j != want[i] {
				t.Fatalf("trial %d: position %d holds job %d (key %v, submit %d), sort.SliceStable's order has job %d (key %v, submit %d)",
					trial, i, r.j.ID, r.key, r.j.Submit, want[i].ID, key[want[i].ID], want[i].Submit)
			}
		}
	}
}
