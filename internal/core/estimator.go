package core

import (
	"fmt"

	"repro/internal/feat"
	"repro/internal/job"
	"repro/internal/ml/gam"
	"repro/internal/ml/mlmodel"
)

// WorkloadEstimator is the Workload Estimate Model (§3.5.3): a GAM over
// trace features plus — unlike QSSF — the profiled resource features,
// predicting job duration for the Resource Orchestrator's priority values.
// It satisfies sched.Estimator.
type WorkloadEstimator struct {
	feat  *feat.DurationFeaturizer
	model *gam.Model
	// cache keeps each job's estimate from its first use until the job is
	// profiled (Invalidate) or the model refit (Update): a queued job's key
	// and a running partner's remaining time both read it.
	cache map[int]float64

	// monotonicGPUNum applies the §3.6.1 System Tuner constraint: the
	// gpu_num shape function is forced non-decreasing at training time.
	monotonicGPUNum bool

	// FullRefits makes every Update a full fit, as the Update Engine did
	// before it fine-tuned: the reference the warm refits are held to
	// (lab's TestWarmRefitTracksFullRefit). It is not persisted.
	FullRefits bool

	params gam.Params
	// edgeRows is the history length of the last full fit, whose bin edges
	// the warm refits keep; 0 (a bundle saved before it was recorded) makes
	// the next Update a full fit.
	edgeRows int
	// warmFits and fullFits count Update's branches over this estimator's
	// lineage (Clone copies them; a loaded bundle starts at zero).
	warmFits, fullFits int
}

// A warm refit boosts a tenth of a full fit's rounds at twice its step: the
// re-binned history encodings start from a zero shape, and at 0.1 they keep
// 0.9³⁰ ≈ 4 % of their residual where 0.05 would keep 21 %. It tracks a full
// refit's next-week accuracy (EXPERIMENTS.md, Update Engine).
const (
	warmRounds       = 30
	warmLearningRate = 0.1
)

// estimatorGAMParams are sized so monthly refits stay in the seconds range
// (Figure 10b) on 10⁴–10⁵ job histories.
func estimatorGAMParams() gam.Params {
	return gam.Params{MaxBins: 64, Rounds: 300, LearningRate: 0.05}
}

// TrainWorkloadEstimator fits the model on completed history jobs. Histories
// come from simulation runs or trace months; profiles are attached if
// missing (a completed job's profile is always observable from its run).
func TrainWorkloadEstimator(history []*job.Job) (*WorkloadEstimator, error) {
	return trainWorkloadEstimator(history, true)
}

func trainWorkloadEstimator(history []*job.Job, monotonic bool) (*WorkloadEstimator, error) {
	if len(history) == 0 {
		return nil, fmt.Errorf("core: estimator needs history")
	}
	w := &WorkloadEstimator{monotonicGPUNum: monotonic, params: estimatorGAMParams()}
	if err := w.Update(history); err != nil {
		return nil, err
	}
	return w, nil
}

// Update refits featurizer and model from an extended history — the Update
// Engine's periodic maintenance (§3.6.2). The first fit, every fit once the
// history has at least doubled since the kept bin edges were taken, and
// every fit under FullRefits is a full gam.Fit. The others fine-tune the
// current model (gam.FitFrom, warmRounds at warmLearningRate): they keep the
// bin edges and shapes of the job's own attributes and bin the history
// encodings afresh (feat.HistoryEncoded), whose values change meaning at
// every refit. It is all or nothing:
// featurizer, model and estimate cache are replaced together once the fit
// has succeeded, and an error leaves the estimator exactly as it was.
func (w *WorkloadEstimator) Update(history []*job.Job) error {
	return w.update(history, updateMetrics{})
}

// update is Update, timing its two stages on m.
func (w *WorkloadEstimator) update(history []*job.Job, m updateMetrics) error {
	if len(history) == 0 {
		return fmt.Errorf("core: empty update history")
	}
	EnsureProfiles(history)
	t := m.reg.StartTimer(m.featurize)
	f, ds := feat.Refit(w.feat, history, true)
	t.Stop()
	t = m.reg.StartTimer(m.fit)
	full := w.FullRefits || w.model == nil || len(history) >= 2*w.edgeRows
	var model *gam.Model
	var err error
	if full {
		model, err = gam.Fit(ds, w.params)
	} else {
		p := w.params
		p.Rounds, p.LearningRate = warmRounds, warmLearningRate
		model, err = gam.FitFrom(w.model, ds, p, feat.HistoryEncoded())
	}
	if err != nil {
		return fmt.Errorf("core: estimator fit: %w", err)
	}
	if w.monotonicGPUNum {
		model.ApplyMonotonic(0) // feature 0 is gpu_num
	}
	t.Stop()
	if full {
		w.edgeRows = len(history)
		w.fullFits++
	} else {
		w.warmFits++
	}
	w.feat, w.model, w.cache = f, model, map[int]float64{}
	return nil
}

// Fits reports how many of this lineage's fits were warm and how many full.
// The counts are not persisted: a resumed run counts from the bundle it
// loaded.
func (w *WorkloadEstimator) Fits() (warm, full int) { return w.warmFits, w.fullFits }

// EstimateSec implements sched.Estimator: predicted duration in seconds,
// floored at one minute (the profiler already filtered most sub-minute
// jobs).
func (w *WorkloadEstimator) EstimateSec(j *job.Job) float64 {
	if v, ok := w.cache[j.ID]; ok {
		return v
	}
	v := w.model.Predict(w.feat.Features(j))
	if v < 60 {
		v = 60
	}
	w.cache[j.ID] = v
	return v
}

// Invalidate clears a cached estimate (e.g. after profiling attached new
// features).
func (w *WorkloadEstimator) Invalidate(jobID int) { delete(w.cache, jobID) }

// Clone returns an estimator backed by the same fitted model but with its
// own cache and update lineage: Update on the clone refits the clone only.
// One training pass can then serve many independent scheduler runs without
// state from one run leaking into the next.
func (w *WorkloadEstimator) Clone() *WorkloadEstimator {
	cp := *w
	cp.cache = map[int]float64{}
	return &cp
}

// Explain returns the local interpretation of one prediction — Figure 7c.
func (w *WorkloadEstimator) Explain(j *job.Job) (intercept float64, contribs []gam.Contribution) {
	return w.model.Explain(w.feat.Features(j))
}

// FeatureNames lists the model's input features.
func (w *WorkloadEstimator) FeatureNames() []string { return w.feat.Names() }

// EvalR2 scores the estimator on a held-out job set (Table 7's metric).
func (w *WorkloadEstimator) EvalR2(jobs []*job.Job) float64 {
	EnsureProfiles(jobs)
	ds := w.feat.Dataset(jobs)
	pred := mlmodel.PredictAll(w.model, ds.X)
	return mlmodel.R2(pred, ds.Y)
}

// EnsureProfiles attaches the ground-truth profile to jobs missing one —
// legitimate for completed jobs (their run was observable) and for
// experiment setup.
func EnsureProfiles(jobs []*job.Job) {
	for _, j := range jobs {
		if !j.Profiled {
			j.Profile = j.Config.Profile()
			j.Profiled = true
		}
	}
}

// TrainWorkloadEstimatorUnconstrained fits the model without the §3.6.1
// monotonic constraint — the baseline of the System Tuner's
// model-troubleshooting comparison.
func TrainWorkloadEstimatorUnconstrained(history []*job.Job) (*WorkloadEstimator, error) {
	return trainWorkloadEstimator(history, false)
}
