package lab

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/feat"
	"repro/internal/job"
	"repro/internal/ml/gbdt"
	"repro/internal/trace"
)

// GBDTEstimator is the black-box duration model behind QSSF (Helios pairs
// it with LightGBM) and Horus. It uses the trace features only — no
// profiled resource features, which is part of Lucid's edge (§4.8).
//
// One instance is shared by every scheduler run over a world (QSSF and
// Horus, possibly concurrent under the parallel harness); the prediction
// cache is therefore mutex-guarded. The cached value per job ID is a pure
// function of submit-time features, so concurrent fills are idempotent and
// results stay deterministic regardless of interleaving.
type GBDTEstimator struct {
	feat  *feat.DurationFeaturizer
	model *gbdt.Model

	mu    sync.Mutex
	cache map[int]float64
}

// NewGBDTEstimator trains the model on a history trace.
func NewGBDTEstimator(hist *trace.Trace) (*GBDTEstimator, error) {
	f := feat.NewDurationFeaturizer(hist.Jobs, false)
	m, err := gbdt.Fit(f.Dataset(hist.Jobs), gbdt.LightGBMStyle())
	if err != nil {
		return nil, err
	}
	return &GBDTEstimator{feat: f, model: m, cache: map[int]float64{}}, nil
}

// lazyGBDT is what BuildWorld stores in World.Estimator: the GBDT estimator
// of the world's history month, fit on the first EstimateSec. Only QSSF and
// Horus read it, so a Lucid-only run never pays for the fit. Concurrent
// first callers (QSSF and Horus under the parallel harness) share one fit.
type lazyGBDT struct {
	world string
	hist  *trace.Trace
	once  sync.Once
	est   *GBDTEstimator
}

// EstimateSec implements sched.Estimator.
func (l *lazyGBDT) EstimateSec(j *job.Job) float64 {
	l.once.Do(func() {
		est, err := NewGBDTEstimator(l.hist)
		if err != nil {
			// Unreachable: gbdt.Fit rejects only an empty dataset or a
			// non-finite feature or target, and BuildWorld's history is at
			// least 500 generated jobs, whose trace features and durations
			// are finite.
			panic(fmt.Sprintf("lab: %s: GBDT estimator: %v", l.world, err))
		}
		l.est = est
	})
	return l.est.EstimateSec(j)
}

// lazyModels is what BuildWorld stores as World.models: Lucid's models of the
// world's history month, fit at the first call. Only Lucid reads them, so a
// world that runs no Lucid never pays for the fit. Concurrent first callers
// (Lucids under the parallel harness) share one fit, counted in
// ModelFitStats.
func lazyModels(world string, hist *trace.Trace) func() *core.Models {
	return sync.OnceValue(func() *core.Models {
		start := time.Now()
		m, err := core.TrainModels(hist, core.DefaultConfig())
		if err != nil {
			// Unreachable: the packing analyzer reads no history and fits at
			// the default thresholds; gam.Fit rejects only an empty dataset
			// or a non-finite feature or target, and BuildWorld's history is
			// at least 500 generated jobs with finite features, over more
			// hours than the throughput forecaster's warm-up (BuildWorld
			// rejects a shorter one).
			panic(fmt.Sprintf("lab: %s: Lucid models: %v", world, err))
		}
		modelFits.Add(1)
		modelFitNs.Add(int64(time.Since(start)))
		return m
	})
}

// EstimateSec implements sched.Estimator.
func (e *GBDTEstimator) EstimateSec(j *job.Job) float64 {
	e.mu.Lock()
	if v, ok := e.cache[j.ID]; ok {
		e.mu.Unlock()
		return v
	}
	e.mu.Unlock()
	v := e.model.Predict(e.feat.Features(j))
	if v < 60 {
		v = 60
	}
	e.mu.Lock()
	e.cache[j.ID] = v
	e.mu.Unlock()
	return v
}
