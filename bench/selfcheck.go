package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// selfCheck answers the question the gate depends on: do two sets of runs of
// the same code agree within the bounds? It makes two sets of n untraced runs
// per workload — alternating A, B, A, B …, run i of either set on seed+i, each
// run in a fresh process — and prints, per workload and end-to-end metric,
// both medians, their relative difference and each set's spread (interquartile
// range over median) as a markdown table. A metric misses when the medians
// differ by more than the bound either way, or when a spread exceeds it
// (setup_s is judged on its medians only: one set-up per run). Any miss is an
// error.
func selfCheck(cfg runCfg, n int, stdout, stderr io.Writer) error {
	if n < 2 {
		return fmt.Errorf("selfcheck needs -n of at least 2")
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	started := time.Now()
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for s := range sets {
				c := cfg
				c.workload, c.seed, c.traced, c.spanFile = w.name, cfg.seed+uint64(i), false, ""
				res, err := runChild(c, nil, stderr)
				if err != nil {
					return err
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d operations failed", w.name, c.seed, res.Failed)
				}
				for _, d := range endToEnd {
					k := key{w.name, d.name}
					sets[s][k] = append(sets[s][k], res.Metrics[d.name].Value)
				}
			}
			fmt.Fprintf(stderr, "selfcheck: run %d/%d of %s done (%s elapsed)\n", i+1, n, w.name, time.Since(started).Round(time.Second))
		}
	}

	env := newEnvBlock(cfg.seed, false)
	fmt.Fprintf(stdout, "# Run-to-run noise of the benchmark\n\n")
	fmt.Fprintf(stdout, "Output of `go run ./bench -selfcheck -n %d -seed %d`: two alternating sets of %d runs per\n", n, cfg.seed, n)
	fmt.Fprintf(stdout, "workload (seeds %d–%d), same code. `diff` is set B's median against set A's, positive when B is\n", cfg.seed, cfg.seed+uint64(n-1))
	fmt.Fprintf(stdout, "worse; `spread` is the interquartile range over the median.\n\n")
	fmt.Fprintf(stdout, "commit %s, %s, GOMAXPROCS %d of %d, %s, Linux %s\n\n", env.Commit, env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.CPUModel, env.Kernel)
	fmt.Fprintln(stdout, "| workload | metric | unit | median A | median B | diff | spread A | spread B | bound | ok |")
	fmt.Fprintln(stdout, "|---|---|---|---:|---:|---:|---:|---:|---:|---|")
	misses := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			if d.better == "higher" {
				diff = -diff
			}
			sa, sb := iqrShare(a), iqrShare(b)
			ok := math.Abs(diff) <= d.bound
			if d.name != "setup_s" && (sa > d.bound || sb > d.bound) {
				ok = false
			}
			mark := "yes"
			if !ok {
				mark = "**no**"
				misses++
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.6g | %.6g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.name, d.name, d.unit, ma, mb, 100*diff, 100*sa, 100*sb, 100*d.bound, mark)
		}
	}
	fmt.Fprintf(stdout, "\n%d of %d pairs within the bound; %s wall.\n", len(workloads)*len(endToEnd)-misses, len(workloads)*len(endToEnd), time.Since(started).Round(time.Second))
	if misses > 0 {
		return fmt.Errorf("selfcheck: %d (workload, metric) pairs missed the bound", misses)
	}
	return nil
}
