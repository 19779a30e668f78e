// Package sched implements the baseline schedulers Lucid is evaluated
// against (§4.1): FIFO, the SJF oracle, the prediction-driven QSSF, the
// intrusive packing scheduler Horus, the preemptive Tiresias, and an
// elastic Pollux-style scheduler for §4.7. Lucid itself lives in
// internal/core; everything here shares the sim.Scheduler interface. One
// scheduler instance serves one simulation: besides any per-run state, each
// keeps the scratch its rounds rank jobs in.
package sched

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/job"
	"repro/internal/sim"
)

// Estimator predicts a job's duration in seconds from non-intrusive
// metadata. QSSF and Lucid plug different models into this.
type Estimator interface {
	EstimateSec(j *job.Job) float64
}

// OracleEstimator returns the ground-truth duration (SJF's "impossible to
// attain" perfect information).
type OracleEstimator struct{}

// EstimateSec returns the true duration.
func (OracleEstimator) EstimateSec(j *job.Job) float64 { return float64(j.Duration) }

// byVC groups jobs per virtual cluster preserving input order.
func byVC(jobs []*job.Job) map[string][]*job.Job {
	m := map[string][]*job.Job{}
	for _, j := range jobs {
		m[j.VC] = append(m[j.VC], j)
	}
	return m
}

// sortedVCs returns the group keys in deterministic order.
func sortedVCs(m map[string][]*job.Job) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// placeGreedy walks jobs in rank order, starting every one that fits
// (skipping those that don't) — the standard non-blocking queue drain.
func placeGreedy(env *sim.Env, jobs []ranked) {
	for _, r := range jobs {
		env.StartExclusive(r.j)
	}
}

// placeStrict walks jobs in order and stops at the first that cannot be
// placed — true head-of-line blocking, the behaviour that makes FIFO so
// costly on heavy-tailed workloads.
func placeStrict(env *sim.Env, jobs []*job.Job) {
	for _, j := range jobs {
		if !env.StartExclusive(j) {
			return
		}
	}
}

// ranked is a job beside its sort key, computed once per round.
type ranked struct {
	j   *job.Job
	key float64
}

// cmpRanked orders by key ascending with (submit, id) tiebreaks for
// determinism. It is negative exactly when a sorts before b, and
// slices.SortStableFunc only ever asks whether it is negative, in the same
// insertion-sort-plus-symMerge sequence as sort.SliceStable: the two put
// any keys — ties, equal submits, NaN — in the same order.
func cmpRanked(a, b ranked) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(a.j.Submit, b.j.Submit), cmp.Compare(a.j.ID, b.j.ID))
}

// rankBy fills buf with jobs and their keys, each key computed once, sorts
// it by cmpRanked and returns it; the caller keeps it as its scratch for the
// next round.
func rankBy(buf []ranked, jobs []*job.Job, key func(*job.Job) float64) []ranked {
	buf = buf[:0]
	for _, j := range jobs {
		buf = append(buf, ranked{j, key(j)})
	}
	slices.SortStableFunc(buf, cmpRanked)
	return buf
}
