package lab

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestFigRSerialParallelIdentical drives the failure sweep serially and on
// the worker pool over one golden world and demands identical reports —
// each grid cell is shared-nothing (fresh scheduler, fresh injector), so
// parallel execution must be invisible. It also asserts the sweep is not
// vacuous: the clean column sees zero faults while nonzero multipliers
// actually kill jobs.
func TestFigRSerialParallelIdentical(t *testing.T) {
	eval, models, _ := goldenWorld(t)
	w := &World{Spec: goldenSpec(), Eval: eval, Models: models,
		Estimator: sched.OracleEstimator{}}
	mults := []float64{0, 8}

	SetParallelism(1)
	serialCells, serialRep := figRGrid(w, mults)
	SetParallelism(len(serialCells))
	parCells, parRep := figRGrid(w, mults)
	SetParallelism(0)

	if serialRep != parRep {
		t.Errorf("FigR report differs serial vs parallel:\n%s\nvs\n%s", serialRep, parRep)
	}
	if !strings.HasPrefix(serialRep, "Fig R:") {
		t.Fatalf("report header missing:\n%s", serialRep)
	}
	kills := 0
	for i := range serialCells {
		s, p := serialCells[i], parCells[i]
		if s.Res.Summary() != p.Res.Summary() {
			t.Errorf("%s ×%g: metrics differ serial vs parallel:\n  %s\n  %s",
				s.Name, s.Mult, s.Res.Summary(), p.Res.Summary())
		}
		if s.Mult == 0 {
			if s.Res.JobKills != 0 || s.Res.NodeFailures != 0 || s.Res.FailedJobs != 0 {
				t.Errorf("%s: clean column saw faults: %s", s.Name, s.Res.Summary())
			}
		} else {
			kills += s.Res.JobKills
		}
	}
	if kills == 0 {
		t.Fatal("failure sweep never injected a fault — the experiment is vacuous")
	}
}
