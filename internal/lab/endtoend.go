package lab

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Table3 reproduces §4.2: the testbed comparison of FIFO/SJF/Tiresias/Lucid
// on the 100-job static trace (makespan) and the 120-job continuous trace
// (average JCT), under a fine-grained 1 s engine standing in for the
// physical cluster and the coarse 30 s engine used by the large-scale
// simulations — the fidelity check.
type Table3Row struct {
	Scheduler         string
	StaticPhysicalHrs float64
	StaticSimHrs      float64
	ContPhysicalHrs   float64
	ContSimHrs        float64
	MakespanErrPct    float64
	JCTErrPct         float64
}

// Table3 runs the fidelity experiment.
func Table3(seed uint64) ([]Table3Row, string, error) {
	// Models for Lucid, trained on a Venus-like history scaled down.
	spec := trace.Venus()
	spec.NumJobs = 4000
	hist := trace.NewGenerator(spec).Emit(0)
	cfg := core.DefaultConfig()
	// §4.2: "Lucid profiles each job for at most 60 seconds" on the testbed.
	cfg.TprofSec = 60
	models, err := core.TrainModels(hist, cfg)
	if err != nil {
		return nil, "", err
	}

	fine := sim.Options{Tick: 1, SchedulerEvery: 5}
	coarse := sim.Options{Tick: 30, SchedulerEvery: 30}
	fineL, coarseL := fine, coarse
	fineL.ProfilerNodes, coarseL.ProfilerNodes = 1, 1

	// mkSched builds a fresh scheduler per cell; Lucid runs clone the models
	// so no Update Engine state leaks between cells (they may run
	// concurrently).
	mkSched := func(name string) (sim.Scheduler, bool) {
		switch name {
		case "FIFO":
			return sched.NewFIFO(), false
		case "SJF":
			return sched.NewSJF(), false
		case "Tiresias":
			return sched.NewTiresias(), false
		default:
			return core.New(models.Clone(), cfg), true
		}
	}

	// Makespan of one 100-job replay is a tail statistic dominated by the
	// last straggler, so average each cell over several trace draws.
	const draws = 3

	// Flatten scheduler × draw × engine into one work list for the pool;
	// every cell regenerates its traces (deterministic per seed), so cells
	// share nothing.
	schedNames := []string{"FIFO", "SJF", "Tiresias", "Lucid"}
	engines := []struct {
		opts, lopts sim.Options
	}{{fine, fineL}, {coarse, coarseL}}
	type t3out struct{ staticHrs, contHrs float64 }
	nCells := len(schedNames) * draws * len(engines)
	cells := collectPar(nCells, func(i int) t3out {
		name := schedNames[i/(draws*len(engines))]
		d := uint64(i / len(engines) % draws)
		engine := engines[i%len(engines)]
		static := trace.StaticTestbed(100, seed+2*d)
		cont := trace.ContinuousTestbed(120, 240, seed+2*d+1)
		s, isLucid := mkSched(name)
		o := engine.opts
		if isLucid {
			o = engine.lopts
		}
		stRes := sim.New(static, s, o).Run()
		s2, isLucid2 := mkSched(name)
		o2 := engine.opts
		if isLucid2 {
			o2 = engine.lopts
		}
		coRes := sim.New(cont, s2, o2).Run()
		return t3out{stRes.MakespanHours(), coRes.AvgJCTHours()}
	})

	var rows []Table3Row
	var tb [][]string
	for si, name := range schedNames {
		row := Table3Row{Scheduler: name}
		for d := 0; d < draws; d++ {
			for ei := range engines {
				c := cells[si*draws*len(engines)+d*len(engines)+ei]
				if ei == 0 {
					row.StaticPhysicalHrs += c.staticHrs / draws
					row.ContPhysicalHrs += c.contHrs / draws
				} else {
					row.StaticSimHrs += c.staticHrs / draws
					row.ContSimHrs += c.contHrs / draws
				}
			}
		}
		row.MakespanErrPct = errPct(row.StaticSimHrs, row.StaticPhysicalHrs)
		row.JCTErrPct = errPct(row.ContSimHrs, row.ContPhysicalHrs)
		rows = append(rows, row)
		tb = append(tb, []string{name,
			fmt.Sprintf("%.2f", row.StaticPhysicalHrs), fmt.Sprintf("%.2f", row.StaticSimHrs),
			fmt.Sprintf("%.2f", row.ContPhysicalHrs), fmt.Sprintf("%.2f", row.ContSimHrs),
			fmt.Sprintf("%.1f%%", row.MakespanErrPct), fmt.Sprintf("%.1f%%", row.JCTErrPct)})
	}
	report := "Table 3 — physical (1 s engine) vs simulation (30 s engine)\n" +
		table([]string{"scheduler", "static/fine(h)", "static/sim(h)",
			"cont/fine(h)", "cont/sim(h)", "makespan err", "JCT err"}, tb)
	return rows, report, nil
}

func errPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b * 100
	if d < 0 {
		d = -d
	}
	return d
}

// Table4Row is one (cluster, scheduler) cell block of Table 4.
type Table4Row struct {
	Cluster, Scheduler string
	AvgJCTHrs          float64
	AvgQueueHrs        float64
	P999QueueHrs       float64
	UtilPct, MemPct    float64
}

// Table4 runs the end-to-end large-scale evaluation, also yielding the raw
// results that Figures 8 and 9 and Table 5 render. Worlds come from the
// process-wide cache (GetWorld) and the full cluster × scheduler grid runs
// as one flat work list on the harness pool, so a slow cluster's runs don't
// serialize behind a fast one. Rows are rendered from the assembled results
// in canonical (spec, SchedulerOrder) order, never in completion order.
func Table4(specs []trace.GenSpec, scale float64) ([]Table4Row, map[string]map[string]*sim.Result, string, error) {
	worlds, err := GetWorlds(specs, scale)
	if err != nil {
		return nil, nil, "", err
	}
	type cell struct {
		wi int
		nr NamedRun
	}
	var cells []cell
	for wi, w := range worlds {
		for _, nr := range w.Schedulers() {
			cells = append(cells, cell{wi, nr})
		}
	}
	cellRes := collectPar(len(cells), func(i int) *sim.Result {
		return worlds[cells[i].wi].Run(cells[i].nr)
	})
	results := map[string]map[string]*sim.Result{}
	for i, c := range cells {
		name := specs[c.wi].Name
		if results[name] == nil {
			results[name] = map[string]*sim.Result{}
		}
		results[name][c.nr.Name] = cellRes[i]
	}

	var rows []Table4Row
	var tb [][]string
	for _, spec := range specs {
		res := results[spec.Name]
		for _, name := range SchedulerOrder {
			r := res[name]
			rows = append(rows, Table4Row{
				Cluster: spec.Name, Scheduler: name,
				AvgJCTHrs:    r.AvgJCTHours(),
				AvgQueueHrs:  r.AvgQueueHours(),
				P999QueueHrs: r.P999QueueHours(),
				UtilPct:      r.AvgGPUUtilPct,
				MemPct:       r.AvgGPUMemPct,
			})
			tb = append(tb, []string{spec.Name, name,
				fmt.Sprintf("%.2f", r.AvgJCTHours()),
				fmt.Sprintf("%.2f", r.AvgQueueHours()),
				fmt.Sprintf("%.2f", r.P999QueueHours()),
				fmt.Sprintf("%.1f", r.AvgGPUUtilPct),
				fmt.Sprintf("%d", r.Unfinished)})
		}
	}
	report := "Table 4 — average JCT / queue / P99.9 queue (hours)\n" +
		table([]string{"cluster", "scheduler", "avg JCT", "avg queue", "p99.9 queue", "util%", "unfinished"}, tb)
	return rows, results, report, nil
}

// Fig8 renders JCT CDF checkpoints from Table 4's results.
func Fig8(results map[string]map[string]*sim.Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 8 — JCT CDF checkpoints (seconds at given percentile)\n")
	pcts := []float64{0.25, 0.5, 0.75, 0.9, 0.99}
	for _, cluster := range sortedKeys(results) {
		fmt.Fprintf(&sb, "\n[%s]\n", cluster)
		var tb [][]string
		for _, name := range SchedulerOrder {
			r := results[cluster][name]
			if r == nil {
				continue
			}
			jcts := r.JCTs()
			row := []string{name}
			for _, p := range pcts {
				row = append(row, fmt.Sprintf("%.0f", sim.Percentile(jcts, p)))
			}
			tb = append(tb, row)
		}
		sb.WriteString(table([]string{"scheduler", "p25", "p50", "p75", "p90", "p99"}, tb))
	}
	return sb.String()
}

// Fig9 renders per-VC average queuing delay (top-8 VCs by delay, plus the
// whole cluster, as the paper plots).
func Fig9(results map[string]map[string]*sim.Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 9 — average queuing delay per VC (seconds)\n")
	for _, cluster := range sortedKeys(results) {
		byName := results[cluster]
		// Rank VCs by FIFO delay (the paper picks the 8 busiest).
		ref := byName["FIFO"]
		if ref == nil {
			continue
		}
		type vcd struct {
			vc string
			d  float64
		}
		var vcs []vcd
		for vc, d := range ref.PerVCQueueSec {
			vcs = append(vcs, vcd{vc, d})
		}
		sort.Slice(vcs, func(i, j int) bool { return vcs[i].d > vcs[j].d })
		if len(vcs) > 8 {
			vcs = vcs[:8]
		}
		fmt.Fprintf(&sb, "\n[%s]\n", cluster)
		header := []string{"scheduler"}
		for _, v := range vcs {
			header = append(header, v.vc)
		}
		header = append(header, "all")
		var tb [][]string
		for _, name := range SchedulerOrder {
			r := byName[name]
			if r == nil {
				continue
			}
			row := []string{name}
			for _, v := range vcs {
				row = append(row, fmt.Sprintf("%.0f", r.PerVCQueueSec[v.vc]))
			}
			row = append(row, fmt.Sprintf("%.0f", r.AvgQueueSec))
			tb = append(tb, row)
		}
		sb.WriteString(table(header, tb))
	}
	return sb.String()
}

// Table5 reproduces the large-vs-small job breakdown on Venus.
func Table5(results map[string]*sim.Result) string {
	var tb [][]string
	for _, name := range []string{"FIFO", "Tiresias", "Lucid"} {
		r := results[name]
		if r == nil {
			continue
		}
		lj, lq, sj, sq := r.ScaleStats()
		tb = append(tb, []string{name,
			fmt.Sprintf("%.2f", lj/3600), fmt.Sprintf("%.2f", lq/3600),
			fmt.Sprintf("%.2f", sj/3600), fmt.Sprintf("%.2f", sq/3600)})
	}
	return "Table 5 — large (>8 GPU) vs small (≤8 GPU) jobs in Venus (hours)\n" +
		table([]string{"scheduler", "large JCT", "large queue", "small JCT", "small queue"}, tb)
}

// Fig12 reproduces the workload-distribution sensitivity: Venus-L/M/H
// traces under Lucid vs Tiresias. The three worlds build in parallel
// (distinct cache keys) and the 3×2 run grid is flattened onto the pool.
func Fig12(scale float64) (string, error) {
	utils := []trace.UtilLevel{trace.UtilLow, trace.UtilMedium, trace.UtilHigh}
	specs := make([]trace.GenSpec, len(utils))
	for i, util := range utils {
		specs[i] = trace.Venus()
		specs[i].Util = util
	}
	worlds, err := GetWorlds(specs, scale)
	if err != nil {
		return "", err
	}
	res := collectPar(len(worlds)*2, func(i int) *sim.Result {
		w := worlds[i/2]
		if i%2 == 0 {
			return w.Run(NamedRun{"Lucid", w.NewLucid(core.DefaultConfig()), LucidOpts(w.Spec)})
		}
		return w.Run(NamedRun{"Tiresias", sched.NewTiresias(), SimOpts()})
	})
	var tb [][]string
	for i, util := range utils {
		lucid, tir := res[2*i], res[2*i+1]
		tb = append(tb, []string{"Venus-" + util.String(),
			fmt.Sprintf("%.2f", lucid.AvgJCTHours()), fmt.Sprintf("%.0f", lucid.AvgQueueSec),
			fmt.Sprintf("%.2f", tir.AvgJCTHours()), fmt.Sprintf("%.0f", tir.AvgQueueSec)})
	}
	return "Figure 12 — sensitivity to workload utilization distribution\n" +
		table([]string{"trace", "Lucid JCT(h)", "Lucid queue(s)", "Tiresias JCT(h)", "Tiresias queue(s)"}, tb), nil
}

// Fig14a reproduces the Pollux comparison under workload intensity scaling.
func Fig14a(intensities []float64, seed uint64) (string, error) {
	spec := trace.Venus()
	spec.NumJobs = 4000
	hist := trace.NewGenerator(spec).Emit(0)
	cfg := core.DefaultConfig()
	models, err := core.TrainModels(hist, cfg)
	if err != nil {
		return "", err
	}
	// Flatten intensity × scheduler onto the pool. Each cell regenerates
	// its trace (deterministic per seed) and Lucid cells clone the models,
	// so cells share nothing.
	lopts := sim.Options{Tick: 30, SchedulerEvery: 30, ProfilerNodes: 1}
	opts := sim.Options{Tick: 30, SchedulerEvery: 30}
	const kinds = 3 // Lucid, Pollux, Tiresias
	res := collectPar(len(intensities)*kinds, func(i int) *sim.Result {
		tr := trace.PolluxTrace(intensities[i/kinds], seed)
		switch i % kinds {
		case 0:
			return sim.New(tr, core.New(models.Clone(), cfg), lopts).Run()
		case 1:
			return sim.New(tr, sched.NewPollux(), opts).Run()
		default:
			return sim.New(tr, sched.NewTiresias(), opts).Run()
		}
	})
	var tb [][]string
	for i, in := range intensities {
		lucid, pollux, tir := res[kinds*i], res[kinds*i+1], res[kinds*i+2]
		tb = append(tb, []string{fmt.Sprintf("%.1fx", in),
			fmt.Sprintf("%.2f", lucid.AvgJCTHours()),
			fmt.Sprintf("%.2f", pollux.AvgJCTHours()),
			fmt.Sprintf("%.2f", tir.AvgJCTHours())})
	}
	return "Figure 14a — avg JCT (hours) under workload intensity\n" +
		table([]string{"intensity", "Lucid", "Pollux", "Tiresias"}, tb), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
