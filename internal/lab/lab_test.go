package lab

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// tinyScale keeps end-to-end lab tests quick; shape assertions stay loose at
// this size (the benches run larger).
const tinyScale = 0.04

func TestFig2a(t *testing.T) {
	at100, rep := Fig2a()
	if at100 < 0.8 || at100 > 0.98 {
		t.Fatalf("fit at 100%% = %v", at100)
	}
	if !strings.Contains(rep, "speed(100%)") {
		t.Fatalf("report malformed:\n%s", rep)
	}
}

func TestFig2b(t *testing.T) {
	vals, rep := Fig2b()
	for _, batch := range []int{32, 64, 128} {
		v := vals[batch]
		if v[1] <= v[0] {
			t.Fatalf("AMP should improve packing at batch %d: %v", batch, v)
		}
	}
	if !strings.Contains(rep, "AMP=1") {
		t.Fatal("report malformed")
	}
}

func TestFig3(t *testing.T) {
	pairs, rep := Fig3a()
	if len(pairs) != 5 {
		t.Fatalf("want 5 pairs, got %d", len(pairs))
	}
	// PointNet pairing keeps ResNet-18 near full speed; the self-pair hurts.
	var pn, self Fig3Pair
	for _, p := range pairs {
		switch p.Partner {
		case "PointNet":
			pn = p
		case "ResNet-18":
			self = p
		}
	}
	if pn.SpeedRN < 0.9 || self.SpeedRN > 0.85 {
		t.Fatalf("Figure 3a shape broken: PointNet=%v self=%v", pn.SpeedRN, self.SpeedRN)
	}
	_, repB := Fig3b()
	if !strings.Contains(rep, "ResNet-18") || !strings.Contains(repB, "8 GPU") {
		t.Fatal("reports malformed")
	}
}

func TestFig5(t *testing.T) {
	st, rep, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if st.PackablePairs == 0 || st.TotalPairs == 0 {
		t.Fatal("no pairs classified")
	}
	// Paper: 98.1 % interference-free among packable; we require ≥90 %.
	if st.PackableInterferFree < 0.90 {
		t.Fatalf("only %.1f%% of packable pairs are interference-free", st.PackableInterferFree*100)
	}
	// Paper: 87 % of opportunities captured; we require ≥60 %.
	if st.OpportunitiesCaptured < 0.60 {
		t.Fatalf("only %.1f%% of packing opportunities captured", st.OpportunitiesCaptured*100)
	}
	if !strings.Contains(rep, "packable") {
		t.Fatal("report malformed")
	}
}

func TestFig6(t *testing.T) {
	rep, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GPU Utilization", "accuracy"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("missing %q:\n%s", want, rep)
		}
	}
}

func TestFig14b(t *testing.T) {
	lucid, pollux, rep := Fig14b(7)
	if lucid-pollux < 1 {
		t.Fatalf("adaptive training degradation %v too small", lucid-pollux)
	}
	if !strings.Contains(rep, "Pollux") {
		t.Fatal("report malformed")
	}
}

func TestBuildWorldAndSchedulers(t *testing.T) {
	w, err := BuildWorld(trace.Venus(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Eval.Jobs) < 500 {
		t.Fatalf("eval too small: %d", len(w.Eval.Jobs))
	}
	scheds := w.Schedulers()
	if len(scheds) != len(SchedulerOrder) {
		t.Fatalf("scheduler lineup %d", len(scheds))
	}
	for i, nr := range scheds {
		if nr.Name != SchedulerOrder[i] {
			t.Fatalf("order mismatch at %d: %s", i, nr.Name)
		}
	}
}

func TestTable4SmallScale(t *testing.T) {
	// A mini cluster keeps the load profile (and therefore contention)
	// realistic at test scale.
	spec := trace.Venus()
	spec.Nodes = 20
	spec.NumVCs = 4
	spec.NumJobs = 4000
	rows, results, rep, err := Table4([]trace.GenSpec{spec}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SchedulerOrder) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Scheduler] = r
	}
	// Even at tiny scale FIFO must not beat Lucid.
	if byName["FIFO"].AvgJCTHrs < byName["Lucid"].AvgJCTHrs {
		t.Fatalf("FIFO (%v) beat Lucid (%v)", byName["FIFO"].AvgJCTHrs, byName["Lucid"].AvgJCTHrs)
	}
	// Downstream renderers consume the same results.
	if s := Fig8(results); !strings.Contains(s, "p50") {
		t.Fatal("Fig8 malformed")
	}
	if s := Fig9(results); !strings.Contains(s, "scheduler") {
		t.Fatal("Fig9 malformed")
	}
	if s := Table5(results["Venus"]); !strings.Contains(s, "large JCT") {
		t.Fatal("Table5 malformed")
	}
	if !strings.Contains(rep, "avg JCT") {
		t.Fatal("Table4 report malformed")
	}
}

func TestFig10a(t *testing.T) {
	w, err := BuildWorld(trace.Venus(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	lat, rep, err := Fig10a(w, []int{128, 512})
	if err != nil {
		t.Fatal(err)
	}
	// The claim is milliseconds; allow a generous CI budget of 250 ms.
	for n, d := range lat {
		if d.Milliseconds() > 250 {
			t.Fatalf("scheduling %d jobs took %v", n, d)
		}
	}
	if !strings.Contains(rep, "latency") {
		t.Fatal("report malformed")
	}
}

func TestTable7(t *testing.T) {
	res, rep, err := Table7(0.08)
	if err != nil {
		t.Fatal(err)
	}
	// Lucid's GA²M must be competitive: not the worst on either task.
	worstMAE, worstR2 := 0.0, 2.0
	for _, m := range table7Models {
		if res.ThroughputMAE[m] > worstMAE {
			worstMAE = res.ThroughputMAE[m]
		}
		if res.DurationR2[m] < worstR2 {
			worstR2 = res.DurationR2[m]
		}
	}
	if res.ThroughputMAE["Lucid"] >= worstMAE && len(table7Models) > 1 {
		t.Fatalf("Lucid has the worst throughput MAE: %v", res.ThroughputMAE)
	}
	if res.DurationR2["Lucid"] <= worstR2 && len(table7Models) > 1 {
		t.Fatalf("Lucid has the worst duration R²: %v", res.DurationR2)
	}
	if res.PackingAccuracy < 0.85 {
		t.Fatalf("packing accuracy %v", res.PackingAccuracy)
	}
	if !strings.Contains(rep, "LightGBM") {
		t.Fatal("report malformed")
	}
}

func TestGBDTEstimator(t *testing.T) {
	spec := trace.Venus()
	spec.NumJobs = 1500
	g := trace.NewGenerator(spec)
	hist := g.Emit(0)
	est, err := NewGBDTEstimator(hist)
	if err != nil {
		t.Fatal(err)
	}
	j := g.Emit(10).Jobs[0]
	v1 := est.EstimateSec(j)
	if v1 < 60 {
		t.Fatalf("estimate %v below floor", v1)
	}
	if v2 := est.EstimateSec(j); v2 != v1 {
		t.Fatal("estimate not cached/deterministic")
	}
}

func TestTable3Fidelity(t *testing.T) {
	rows, rep, err := Table3(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.JCTErrPct > 15 {
			t.Errorf("%s continuous-JCT fidelity error %.1f%%", r.Scheduler, r.JCTErrPct)
		}
	}
	if !strings.Contains(rep, "makespan err") {
		t.Fatal("report malformed")
	}
}

func TestFig7Interpretations(t *testing.T) {
	rep, err := Fig7(0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hour", "intercept", "shape function"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("Fig7 missing %q", want)
		}
	}
}

func TestFig13Predictions(t *testing.T) {
	rep, err := Fig13(0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"real", "predicted", "overall R²"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("Fig13 missing %q", want)
		}
	}
}

func TestFig10bTrainingTimes(t *testing.T) {
	rep, err := Fig10b([]trace.GenSpec{trace.Venus()}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "Workload Estimate") {
		t.Fatal("report malformed")
	}
}

func TestFig14aCrossover(t *testing.T) {
	rep, err := Fig14a([]float64{0.5, 2.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "Pollux") {
		t.Fatal("report malformed")
	}
}
