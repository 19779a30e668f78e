package core

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/job"
)

// modelBytes is the estimator's GA²M as Save writes it.
func modelBytes(t *testing.T, w *WorkloadEstimator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEstimatorUpdateBranches walks the Update Engine's two branches: the
// first fit is full, refits are warm until the history has doubled since
// the kept edges were taken, then one is full again and the count behind
// the edges moves to it.
func TestEstimatorUpdateBranches(t *testing.T) {
	hist, g := historyTrace(1000)
	jobs := append(hist.Jobs, g.Emit(1200).Jobs...)
	est, err := TrainWorkloadEstimator(jobs[:1000])
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		rows, warm, full, edgeRows int
	}{
		{0, 0, 1, 1000},
		{1400, 1, 1, 1000},
		{1999, 2, 1, 1000},
		{2000, 2, 2, 2000}, // doubled: full
		{2200, 3, 2, 2000},
	} {
		if step.rows > 0 {
			if err := est.Update(jobs[:step.rows]); err != nil {
				t.Fatal(err)
			}
		}
		warm, full := est.Fits()
		if warm != step.warm || full != step.full || est.edgeRows != step.edgeRows {
			t.Fatalf("after %d rows: %d warm, %d full fits, edges from %d rows; want %d, %d, %d",
				step.rows, warm, full, est.edgeRows, step.warm, step.full, step.edgeRows)
		}
	}
}

// TestBundleCarriesEdgeRows: the rows behind the edges survive a bundle
// round trip, so a resumed run takes the branch the uninterrupted one does,
// and a bundle saved before the count existed loads and refits in full.
func TestBundleCarriesEdgeRows(t *testing.T) {
	hist, g := historyTrace(1200)
	models, err := TrainModels(hist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := models.Save(&buf); err != nil {
		t.Fatal(err)
	}
	more := append(append([]*job.Job(nil), hist.Jobs...), g.Emit(400).Jobs...)

	loaded, err := LoadModels(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Estimator.edgeRows != 1200 {
		t.Fatalf("loaded bundle's edges are from %d rows, want 1200", loaded.Estimator.edgeRows)
	}
	live := models.Clone()
	for _, m := range []*Models{live, loaded} {
		if err := m.Estimator.Update(more); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(modelBytes(t, live.Estimator), modelBytes(t, loaded.Estimator)) {
		t.Fatal("a warm refit from a loaded bundle differs from one from the live model")
	}

	// An older bundle: no estimator_edge_rows field.
	var dto map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if _, ok := dto["estimator_edge_rows"]; !ok {
		t.Fatal("bundle does not record estimator_edge_rows")
	}
	delete(dto, "estimator_edge_rows")
	old, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := LoadModels(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.Estimator.Update(more); err != nil {
		t.Fatal(err)
	}
	if warm, full := legacy.Estimator.Fits(); warm != 0 || full != 1 {
		t.Fatalf("an older bundle's next refit: %d warm, %d full; want a full fit", warm, full)
	}
	if legacy.Estimator.edgeRows != len(more) {
		t.Fatalf("edges from %d rows after the full fit, want %d", legacy.Estimator.edgeRows, len(more))
	}
}

// TestClonesRefitWarmInParallel: clones share one fitted GA²M, and parallel
// runs refit their clones at once. A warm refit must only read the shared
// model (run under -race), and clones fed the same history agree.
func TestClonesRefitWarmInParallel(t *testing.T) {
	hist, g := historyTrace(1000)
	est, err := TrainWorkloadEstimator(hist.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	shared := modelBytes(t, est)
	more := append(append([]*job.Job(nil), hist.Jobs...), g.Emit(300).Jobs...)
	EnsureProfiles(more)
	clones := []*WorkloadEstimator{est.Clone(), est.Clone()}
	errs := make([]error, len(clones))
	var wg sync.WaitGroup
	for i, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Update(more)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(modelBytes(t, est), shared) {
		t.Fatal("a clone's warm refit wrote to the shared model")
	}
	if warm, _ := clones[0].Fits(); warm != 1 {
		t.Fatalf("clone refit %d times warm, want 1", warm)
	}
	if !bytes.Equal(modelBytes(t, clones[0]), modelBytes(t, clones[1])) {
		t.Fatal("clones refit on the same history differ")
	}
}

// featBytes is the estimator's featurizer as Save writes it.
func featBytes(t *testing.T, w *WorkloadEstimator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.feat.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClonesRefitDifferentHistoriesInParallel: two clones of one trained
// estimator refit at once on different histories, both extending the
// featurizer lineage they share (run under -race). Each must end exactly
// where a clone refit alone on its history does: a refit reads its parent's
// lineage and never writes into it.
func TestClonesRefitDifferentHistoriesInParallel(t *testing.T) {
	hist, g := historyTrace(1000)
	est, err := TrainWorkloadEstimator(hist.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	extra := g.Emit(600).Jobs
	histories := [][]*job.Job{
		append(append([]*job.Job(nil), hist.Jobs...), extra[:300]...),
		append(append([]*job.Job(nil), hist.Jobs...), extra[300:]...),
	}
	serial := make([]*WorkloadEstimator, len(histories))
	for i, h := range histories {
		serial[i] = est.Clone()
		if err := serial[i].Update(h); err != nil {
			t.Fatal(err)
		}
	}
	parallel := []*WorkloadEstimator{est.Clone(), est.Clone()}
	errs := make([]error, len(parallel))
	var wg sync.WaitGroup
	for i, c := range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Update(histories[i])
		}()
	}
	wg.Wait()
	for i := range parallel {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(modelBytes(t, parallel[i]), modelBytes(t, serial[i])) {
			t.Fatalf("clone %d: model differs from its serial refit", i)
		}
		if !bytes.Equal(featBytes(t, parallel[i]), featBytes(t, serial[i])) {
			t.Fatalf("clone %d: featurizer differs from its serial refit", i)
		}
	}
}
