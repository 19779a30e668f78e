package lab

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// FairnessStudy evaluates the §6 fairness extension: Lucid with priority
// aging versus stock Lucid, reporting Jain's index over per-user slowdowns,
// the worst user's slowdown, and the tail queueing delay. Over five Venus
// trace seeds aging 0.5 trims the p99.9 queue on 3 and lengthens it on none,
// while Jain's index rises on 2 and falls on 2 (EXPERIMENTS.md): a
// tail-latency knob, not a fairness one.
func FairnessStudy(scale float64) (string, error) {
	w, err := GetWorld(trace.Venus(), scale)
	if err != nil {
		return "", err
	}
	cases := []struct {
		name  string
		aging float64
	}{
		{"Lucid (no aging)", 0},
		{"Lucid (aging 0.5)", 0.5},
		{"Lucid (aging 2.0)", 2.0},
	}
	runs := make([]NamedRun, len(cases))
	for i, c := range cases {
		cfg := core.DefaultConfig()
		cfg.FairnessAgingSec = c.aging
		runs[i] = NamedRun{c.name, w.NewLucid(cfg), LucidOpts(w.Spec)}
	}
	results := w.RunMany(runs)
	var tb [][]string
	for i, c := range cases {
		res := results[i]
		_, worst := res.WorstUserSlowdown()
		tb = append(tb, []string{c.name,
			fmt.Sprintf("%.0f", res.AvgJCTSec),
			fmt.Sprintf("%.0f", res.P999QueueSec),
			fmt.Sprintf("%.3f", res.FairnessIndex()),
			fmt.Sprintf("%.1f", worst)})
	}
	return "§6 extension — fairness via priority aging on Venus\n" +
		table([]string{"variant", "avg JCT(s)", "p99.9 queue(s)", "Jain index", "worst-user slowdown"}, tb), nil
}
