package sched

import (
	"encoding/json"
	"fmt"

	"repro/internal/workload"
)

// SchedulerState implementations (see sim.SchedulerState) for the stateful
// baselines. FIFO, SJF and QSSF are stateless across ticks and deliberately
// do not implement the interface — a snapshot of them is just the world.
// Pollux runs only in §4.7's study, which never snapshots, so it has none.
// The per-round scratch buffers the rankers keep are not state either: a
// round overwrites them before it reads them, so none is saved.

// tiresiasState captures the LAS bookkeeping clocks.
type tiresiasState struct {
	StartedAt map[int]int64 `json:"started_at,omitempty"`
	StoppedAt map[int]int64 `json:"stopped_at,omitempty"`
}

// SnapshotState implements sim.SchedulerState.
func (t *Tiresias) SnapshotState() ([]byte, error) {
	return json.Marshal(tiresiasState{StartedAt: t.startedAt, StoppedAt: t.stoppedAt})
}

// RestoreState implements sim.SchedulerState.
func (t *Tiresias) RestoreState(blob []byte) error {
	// Unmarshal fills these maps; an omitted one stays empty.
	st := tiresiasState{StartedAt: map[int]int64{}, StoppedAt: map[int]int64{}}
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("tiresias: decode state: %w", err)
	}
	t.startedAt, t.stoppedAt = st.StartedAt, st.StoppedAt
	return nil
}

// horusState captures the prediction-noise RNG position and the per-job
// prediction cache (the cache is state, not memoization: predictions are
// drawn from the RNG, so an uncached re-prediction would consume different
// randomness than the interrupted run).
type horusState struct {
	RNG       uint64                   `json:"rng"`
	Predicted map[int]workload.Profile `json:"predicted,omitempty"`
}

// SnapshotState implements sim.SchedulerState.
func (h *Horus) SnapshotState() ([]byte, error) {
	return json.Marshal(horusState{RNG: h.rng.State(), Predicted: h.predicted})
}

// RestoreState implements sim.SchedulerState.
func (h *Horus) RestoreState(blob []byte) error {
	st := horusState{Predicted: map[int]workload.Profile{}}
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("horus: decode state: %w", err)
	}
	h.rng.SetState(st.RNG)
	h.predicted = st.Predicted
	return nil
}
