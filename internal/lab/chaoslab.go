package lab

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FigR — "goodput under failure rate" — is this repository's chaos
// extension to the paper's evaluation: the Table 4 scheduler set replayed
// over the Venus evaluation month while the fault injector sweeps failure
// intensity from none to 16× the Hu et al.-calibrated baseline (node
// crashes, GPU faults and job crashes scale together). For every
// (scheduler, intensity) cell the grid reports average JCT, goodput (the
// fraction of charged GPU-time that produced finished work), jobs lost to
// retry exhaustion, and the kill/requeue counters — then the JCT
// degradation relative to the fault-free column.
//
// Every cell runs a fresh scheduler instance over the cached world and only
// reads its fault spec, so the grid parallelizes across the harness worker
// pool, and serial vs parallel execution is byte-identical.
func FigR(scale float64) (string, error) {
	w, err := GetWorld(trace.Venus(), scale)
	if err != nil {
		return "", err
	}
	_, report := figRGrid(w, []float64{0, 1, 4, 16})
	return report, nil
}

// chaosSweepSpec scales the calibrated fault rates by mult. The recovery
// knobs (repair window, retry budget, backoff, restore cost) stay fixed:
// the sweep varies how often faults strike, not how recovery behaves.
func chaosSweepSpec(mult float64) *chaos.Spec {
	s := chaos.DefaultSpec()
	s.NodeFailPerDay *= mult
	s.GPUFailPerDay *= mult
	s.JobCrashPerDay *= mult
	return &s
}

// figRCell is one (scheduler, failure-rate multiplier) grid entry.
type figRCell struct {
	Name string
	Mult float64
	Res  *sim.Result
}

// figRGrid runs the sweep and renders the report. Exposed separately from
// FigR so tests can assert on the raw results.
func figRGrid(w *World, mults []float64) ([]figRCell, string) {
	runs := w.Schedulers()
	type cellSpec struct {
		run  int
		mult int
	}
	var cells []cellSpec
	for ri := range runs {
		for mi := range mults {
			cells = append(cells, cellSpec{ri, mi})
		}
	}
	results := collectPar(len(cells), func(i int) figRCell {
		c := cells[i]
		// Fresh scheduler per cell: Schedulers() rebuilds every policy (and
		// clones the Lucid models), so cells never share mutable state.
		nr := w.Schedulers()[c.run]
		if m := mults[c.mult]; m > 0 {
			nr.Opts.Chaos = chaosSweepSpec(m)
		}
		return figRCell{Name: nr.Name, Mult: mults[c.mult], Res: w.Run(nr)}
	})
	at := func(ri, mi int) *sim.Result { return results[ri*len(mults)+mi].Res }

	header := []string{"Scheduler", "×rate", "AvgJCT(h)", "Goodput%", "Failed", "Kills", "Requeues", "NodeFail", "JCT vs clean"}
	var rows [][]string
	for ri, nr := range runs {
		clean := at(ri, 0)
		for mi, m := range mults {
			r := at(ri, mi)
			degr := "—"
			if mi > 0 && clean.AvgJCTSec > 0 {
				degr = fmt.Sprintf("%+.1f%%", (r.AvgJCTSec/clean.AvgJCTSec-1)*100)
			}
			rows = append(rows, []string{
				nr.Name,
				fmt.Sprintf("%g", m),
				fmt.Sprintf("%.2f", r.AvgJCTHours()),
				fmt.Sprintf("%.1f", r.GoodputPct()),
				fmt.Sprintf("%d", r.FailedJobs),
				fmt.Sprintf("%d", r.JobKills),
				fmt.Sprintf("%d", r.Requeues),
				fmt.Sprintf("%d", r.NodeFailures),
				degr,
			})
		}
	}
	out := "Fig R: goodput and JCT under failure-rate sweep (multiples of the calibrated rates;\n" +
		"base: " + chaos.DefaultSpec().String() + ")\n\n"
	return results, out + table(header, rows)
}
