package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesTables holds BENCHMARK.json and the tables in metrics.go
// and main.go in step: same names, units, directions, bounds and reasons.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	compare := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s %q (%q) is outside the contract's character set", kind, g.Name, g.Unit)
			}
		}
	}
	compare("end_to_end", c.EndToEnd, endToEnd)
	compare("per_layer", c.PerLayer, perLayer)
}

// TestTinyPass runs all five workloads at smoke-test size, traced, and checks
// that each passes its own output checks and emits every metric BENCHMARK.json
// names, with its unit, in the driver's result object.
func TestTinyPass(t *testing.T) {
	c := readContract(t)
	// The ctl workloads keep their state under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, w := range c.Workloads {
		r, err := runWorkload(runCfg{workload: w.Name, seed: 1, seconds: defaultSeconds, traced: true, tiny: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.correct() || r.attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, r.attempted, r.failed, r.problems)
		}
		for _, tc := range []struct {
			defs []metricDef
			want []contractMetric
		}{{endToEnd, c.EndToEnd}, {perLayer, c.PerLayer}} {
			var line childResult
			if err := json.Unmarshal([]byte(r.jsonLine(tc.defs)), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if len(line.Metrics) != len(tc.want) {
				t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", w.Name, len(line.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s [%s] emitted as %+v (present %v)", w.Name, m.Name, m.Unit, got, ok)
				}
			}
		}
		for _, d := range endToEnd {
			if !(r.vals[d.name] > 0) {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, d.name, r.vals[d.name])
			}
		}
	}
}

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := newSamples(0)
	if got := s.percentile(0.5); got != 0 {
		t.Errorf("empty set: %v", got)
	}
	gen := xrand.New(7)
	var ref []float64
	for i := 0; i < 1001; i++ {
		v := gen.Intn(1_000_000)
		s.ns = append(s.ns, int64(v))
		ref = append(ref, float64(v))
	}
	for _, p := range []float64{0, 0.001, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := s.percentile(p), sim.Percentile(ref, p); got != want {
			t.Errorf("p%v: %v, sim.Percentile gives %v", p, got, want)
		}
	}
	// Ten samples: p90 is the 9th smallest, p91 the largest — never interpolated.
	ten := &samples{ns: []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}}
	if got := ten.percentile(0.90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := ten.percentile(0.91); got != 10 {
		t.Errorf("p91 of 1..10 = %v, want 10", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	// rep [0,100) ─ a [10,40) ─ a1 [15,25)
	//              └ b [50,90)
	spans := []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a1", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 50, End: 90, Parent: 0},
	}
	self := selfTimes(spans)
	want := []int64{30, 20, 10, 40}
	var sum int64
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != spans[0].End-spans[0].Start {
		t.Errorf("self times sum to %d, the root lasts %d", sum, spans[0].End-spans[0].Start)
	}
}

func TestTracerNestsAndNilIsInert(t *testing.T) {
	var off *tracer
	off.end(off.begin("x")) // must not panic

	tr := newTracer(8)
	root := tr.begin("rep")
	child := tr.begin("sim.run")
	tr.end(child)
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[root].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[root].End < tr.spans[child].End || tr.spans[child].Start < tr.spans[root].Start {
		t.Errorf("child not inside root: %+v", tr.spans)
	}
}
