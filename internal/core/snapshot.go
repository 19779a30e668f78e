package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/workload"
)

// Lucid's sim.SchedulerState implementation. The captured state is every
// run-mutable field of the Figure 4 pipeline: the sharing-score cache, the
// arrival count, the hourly throughput counter, the Binder's pack mode, the
// Profiler's Time-aware Scaling position, the estimator's per-job estimate
// cache (state, not memoization — entries cached before a job's profile
// attached are intentionally stale until Invalidate), and the forecaster's
// live observation window. The orchestrator's queue is not state: it is the
// waiting set's Queued jobs in key order, and the first round after a
// restore builds it again, without failure stamps — that round retries every
// job, and fails the ones the uninterrupted run skipped.
//
// The trained model weights are embedded (via Models.Save) only when the
// Update Engine has refit them mid-run: until then they are exactly the
// constructor-provided models, which the caller reproduces deterministically
// (a lab.World fits the same models for the same spec), so embedding
// them would only bloat every snapshot. History is never embedded — it is
// construction-time input, exactly as Models.Save documents.
type lucidState struct {
	Scores     map[int]workload.SharingScore `json:"scores,omitempty"`
	Arrived    int                           `json:"arrived"`
	HourCount  float64                       `json:"hour_count"`
	CurHour    int64                         `json:"cur_hour"`
	LastUpdate int64                         `json:"last_update"`

	BinderMode       PackMode `json:"binder_mode"`
	ProfCapacityFrac float64  `json:"prof_capacity_frac"`
	ProfTprofNow     int64    `json:"prof_tprof_now"`

	EstCache map[int]float64 `json:"est_cache,omitempty"`
	TPRecent []float64       `json:"tp_recent"`

	ModelsDirty bool            `json:"models_dirty,omitempty"`
	Bundle      json.RawMessage `json:"bundle,omitempty"`
}

// SnapshotState implements sim.SchedulerState.
func (l *Lucid) SnapshotState() ([]byte, error) {
	l.resolveModels()
	st := lucidState{
		Scores:           l.scores,
		Arrived:          l.arrived,
		HourCount:        l.hourCount,
		CurHour:          l.curHour,
		LastUpdate:       l.lastUpdate,
		BinderMode:       l.binder.Mode(),
		ProfCapacityFrac: l.profiler.capacityFrac,
		ProfTprofNow:     l.profiler.tprofNow,
		EstCache:         l.models.Estimator.cache,
		TPRecent:         append([]float64(nil), l.models.Throughput.recent...),
		ModelsDirty:      l.modelsDirty,
	}
	if l.modelsDirty {
		var buf bytes.Buffer
		if err := l.models.Save(&buf); err != nil {
			return nil, fmt.Errorf("core: snapshot refit models: %w", err)
		}
		st.Bundle = buf.Bytes()
	}
	return json.Marshal(st)
}

// RestoreState implements sim.SchedulerState. The receiver must be a fresh
// Lucid built with the same Config and the same trained Models the
// interrupted run started from, which it takes from its model source here
// when this is its first call; RestoreState overlays the run-mutable state
// (and, if the Update Engine had refit, the refit estimator and forecaster
// from the embedded bundle).
func (l *Lucid) RestoreState(blob []byte) error {
	// Unmarshal fills these maps; an omitted one stays empty.
	st := lucidState{Scores: map[int]workload.SharingScore{}, EstCache: map[int]float64{}}
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("core: decode lucid state: %w", err)
	}
	l.resolveModels()
	l.scores = st.Scores
	l.arrived = st.Arrived
	l.hourCount = st.HourCount
	l.curHour = st.CurHour
	l.lastUpdate = st.LastUpdate
	l.binder.SetMode(st.BinderMode)
	l.profiler.capacityFrac = st.ProfCapacityFrac
	l.profiler.tprofNow = st.ProfTprofNow

	l.modelsDirty = st.ModelsDirty
	if st.ModelsDirty {
		if len(st.Bundle) == 0 {
			return fmt.Errorf("core: lucid state says models were refit but carries no bundle")
		}
		loaded, err := LoadModels(bytes.NewReader(st.Bundle))
		if err != nil {
			return fmt.Errorf("core: restore refit models: %w", err)
		}
		// Keep the constructor's analyzer (never refit) and History (the
		// Update Engine's merge base); take the refit estimator + forecaster.
		l.models.Estimator = loaded.Estimator
		l.models.Throughput = loaded.Throughput
	}
	l.models.Estimator.cache = st.EstCache
	l.models.Throughput.recent = append([]float64(nil), st.TPRecent...)
	return nil
}
