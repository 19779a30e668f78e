package lab

import (
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WarmStartStudy measures what the snapshot/fork machinery buys a what-if
// sweep. The question an operator asks mid-month is "if I switched policy
// right now, what would the rest of the month look like?" for each candidate
// policy. Answering it cold re-simulates the shared history once per
// candidate; answering it warm simulates the history once, then forks the
// world in memory for every candidate.
//
// Both paths run the identical (prefix, fork, suffix) computation per
// candidate — Fork restores from a canonical snapshot either way — so the
// study also asserts the outcomes match candidate by candidate, making it a
// correctness check that happens to carry a stopwatch.
//
// Lucid is not a candidate here. A fork into Lucid's options runs, but its
// suffix would run with a profiling partition that the FIFO prefix never
// had, so it would not answer "what if Lucid had run this month".
func WarmStartStudy(scale float64) (string, error) {
	w, err := GetWorld(trace.Venus(), scale)
	if err != nil {
		return "", err
	}
	forkAt := int64(w.Spec.Days) * 86400 / 2 // mid-month decision point

	candidates := func() []NamedRun {
		var out []NamedRun
		for _, nr := range w.Schedulers() {
			if nr.Name == "Lucid" {
				continue
			}
			out = append(out, nr)
		}
		return out
	}

	newBase := func() *sim.Sim { return sim.New(w.Eval, sched.NewFIFO(), SimOpts()) }
	prefix := func() (*sim.Sim, error) {
		base := newBase()
		if done := base.RunUntil(forkAt); done {
			return nil, fmt.Errorf("warmstart: FIFO prefix finished before t=%d; use a larger scale", forkAt)
		}
		return base, nil
	}

	// Cold: every candidate pays for its own prefix simulation.
	coldT0 := time.Now()
	coldRes := map[string]string{}
	for _, nr := range candidates() {
		base, err := prefix()
		if err != nil {
			return "", err
		}
		fk, err := base.Fork(nr.Sched, nr.Opts)
		if err != nil {
			return "", fmt.Errorf("warmstart: cold fork into %s: %w", nr.Name, err)
		}
		coldRes[nr.Name] = fk.Run().Summary()
	}
	coldWall := time.Since(coldT0)

	// Warm: one prefix, then an in-memory fork per candidate.
	warmT0 := time.Now()
	base, err := prefix()
	if err != nil {
		return "", err
	}
	warmRes := map[string]string{}
	var names []string
	for _, nr := range candidates() {
		fk, err := base.Fork(nr.Sched, nr.Opts)
		if err != nil {
			return "", fmt.Errorf("warmstart: warm fork into %s: %w", nr.Name, err)
		}
		warmRes[nr.Name] = fk.Run().Summary()
		names = append(names, nr.Name)
	}
	warmWall := time.Since(warmT0)

	rows := make([][]string, 0, len(names))
	for _, name := range names {
		match := "identical"
		if coldRes[name] != warmRes[name] {
			match = "MISMATCH"
		}
		rows = append(rows, []string{name, match, warmRes[name]})
	}
	out := fmt.Sprintf("Warm-started what-if sweep — Venus, %d candidates forked from a FIFO prefix at t=%dh\n\n",
		len(names), forkAt/3600)
	out += table([]string{"candidate", "cold-vs-warm", "suffix outcome"}, rows)
	out += fmt.Sprintf("\ncold sweep (prefix re-simulated per candidate): %6.2fs wall\n", coldWall.Seconds())
	out += fmt.Sprintf("warm sweep (one prefix, in-memory forks):       %6.2fs wall\n", warmWall.Seconds())
	if warmWall > 0 {
		out += fmt.Sprintf("speedup: %.2fx\n", coldWall.Seconds()/warmWall.Seconds())
	}
	for _, name := range names {
		if coldRes[name] != warmRes[name] {
			return out, fmt.Errorf("warmstart: cold and warm outcomes diverged for %s", name)
		}
	}
	return out, nil
}
