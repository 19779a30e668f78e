package lab

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refitPoint is one Update Engine refit: when it ran, the estimator it left
// and the rows (History ++ finished jobs) it was fit on.
type refitPoint struct {
	at   int64
	est  *core.WorkloadEstimator
	rows []*job.Job
}

// refitRecorder is a Lucid that records every refit its Update Engine makes.
// A refit replaces the estimator's model and featurizer, so a clone taken
// right after it keeps that refit's estimator; no job finishes inside a
// round, so the finished set after the round is the one the refit read.
type refitRecorder struct {
	*core.Lucid
	models *core.Models
	fits   int
	points []refitPoint
}

func newRefitRecorder(m *core.Models) *refitRecorder {
	warm, full := m.Estimator.Fits()
	return &refitRecorder{Lucid: core.New(m, core.DefaultConfig()), models: m, fits: warm + full}
}

func (r *refitRecorder) Tick(env *sim.Env) {
	r.Lucid.Tick(env)
	warm, full := r.models.Estimator.Fits()
	if warm+full == r.fits {
		return
	}
	r.fits = warm + full
	rows := append([]*job.Job(nil), r.models.History...)
	for _, j := range env.AllJobs() {
		if j.State == job.Finished {
			rows = append(rows, j)
		}
	}
	r.points = append(r.points, refitPoint{at: env.Now(), est: r.models.Estimator.Clone(), rows: rows})
}

// submittedIn returns copies of the jobs submitted in [from, to): EvalR2
// attaches profiles, and the world's month must stay as built.
func submittedIn(jobs []*job.Job, from, to int64) []*job.Job {
	var out []*job.Job
	for _, j := range jobs {
		if j.Submit >= from && j.Submit < to {
			cp := *j
			out = append(out, &cp)
		}
	}
	return out
}

// TestWarmRefitTracksFullRefit is the accuracy gate of the warm Update
// Engine, on a Saturn×0.05 month with weekly refits. At every refit point
// the warm model and a full refit on the same rows are scored by duration R²
// over the jobs submitted in the following week: the warm mean must be no
// lower than the full one's, and every point within 0.03 of it.
//
// The refits must also take: the month's average JCT must keep at least
// half of what full refits gain over models that are never refit. (A
// tighter bound would measure the bin edges, not the refit: on this world,
// full refits that differ only in MaxBins, 48 to 80, span 5.14–5.39 h.)
func TestWarmRefitTracksFullRefit(t *testing.T) {
	w, err := GetWorld(trace.Saturn(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	run := func(fullRefits bool) (*refitRecorder, *sim.Result) {
		m := w.Models.Clone()
		m.Estimator.FullRefits = fullRefits
		r := newRefitRecorder(m)
		return r, sim.New(w.Eval, r, LucidOpts(w.Spec)).Run()
	}
	warm, warmRes := run(false)
	full, fullRes := run(true)
	static := core.DefaultConfig()
	static.UpdateIntervalSec = 0
	staticRes := sim.New(w.Eval, w.NewLucid(static), LucidOpts(w.Spec)).Run()
	if len(warm.points) < 3 {
		t.Fatalf("%d refits in the month, want at least 3", len(warm.points))
	}
	if n, _ := warm.models.Estimator.Fits(); n != len(warm.points) {
		t.Fatalf("%d of the month's %d refits were warm, want all", n, len(warm.points))
	}
	if _, n := full.models.Estimator.Fits(); n != len(full.points)+1 {
		t.Fatalf("reference run: %d full fits over %d refits and the training fit", n, len(full.points))
	}

	const week = 7 * 86400
	var warmSum, fullSum float64
	for _, p := range warm.points {
		next := submittedIn(w.Eval.Jobs, p.at, p.at+week)
		ref, err := core.TrainWorkloadEstimator(p.rows)
		if err != nil {
			t.Fatal(err)
		}
		rw, rf := p.est.EvalR2(next), ref.EvalR2(next)
		if math.IsNaN(rw) || math.IsNaN(rf) {
			t.Fatalf("refit at day %.1f: R² warm %v, full %v over %d jobs", float64(p.at)/86400, rw, rf, len(next))
		}
		t.Logf("refit at day %.1f on %d rows: next-week R² warm %.4f, full %.4f (%d jobs)",
			float64(p.at)/86400, len(p.rows), rw, rf, len(next))
		if rw < rf-0.03 {
			t.Errorf("refit at day %.1f: warm R² %.4f is more than 0.03 below the full refit's %.4f",
				float64(p.at)/86400, rw, rf)
		}
		warmSum += rw
		fullSum += rf
	}
	if warmSum < fullSum {
		t.Errorf("mean next-week R² warm %.4f is below the full refits' %.4f",
			warmSum/float64(len(warm.points)), fullSum/float64(len(warm.points)))
	}
	jw, jf, js := warmRes.AvgJCTHours(), fullRes.AvgJCTHours(), staticRes.AvgJCTHours()
	t.Logf("avg JCT warm %.5f h, full %.5f h, never refit %.5f h", jw, jf, js)
	if js-jf < 0.02*jf {
		t.Fatalf("full refits gain too little over static models (%.5f h → %.5f h) to measure the warm ones by", js, jf)
	}
	if jw-jf > (js-jf)/2 {
		t.Errorf("avg JCT %.5f h with warm refits keeps less than half of the full refits' gain (%.5f h → %.5f h)", jw, js, jf)
	}
}
