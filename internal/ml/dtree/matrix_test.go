package dtree

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

func saveBytes(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomCase draws one dataset for the differential test: d features that
// are either continuous or take a handful of values (heavy ties), some rows
// exact duplicates of earlier ones, a class label and a real target that
// both depend on the features plus noise.
func randomCase(rng *xrand.RNG) (x [][]float64, labels, targets []float64, numClasses int) {
	n := 2 + rng.Intn(150)
	d := 1 + rng.Intn(5)
	numClasses = 2 + rng.Intn(3)
	levels := make([]int, d) // 0 → continuous
	for f := range levels {
		levels[f] = []int{0, 2, 3, 7}[rng.Intn(4)]
	}
	fewTargets := rng.Bool(0.3)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Bool(0.15) {
			src := rng.Intn(i)
			x = append(x, append([]float64(nil), x[src]...))
			labels = append(labels, labels[src])
			targets = append(targets, targets[src])
			continue
		}
		row := make([]float64, d)
		s := 0.0
		for f := range row {
			if levels[f] > 0 {
				row[f] = float64(rng.Intn(levels[f]))
			} else {
				row[f] = rng.Float64() * 3
			}
			s += row[f] * float64(f+1)
		}
		x = append(x, row)
		labels = append(labels, float64((int(s)+rng.Intn(2))%numClasses))
		y := s + rng.Norm(0, 0.5)
		if fewTargets {
			y = math.Round(y)
		}
		targets = append(targets, y)
	}
	return x, labels, targets, numClasses
}

func randomParams(rng *xrand.RNG, n, d int) Params {
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	return Params{
		MaxDepth:       pick(0, 0, 1, 2, 3, 6),
		MinSamplesLeaf: pick(0, 1, 1, 2, 5, n/2, n),
		MaxFeatures:    pick(0, 0, 1, d, d+1),
	}
}

// TestGrowerMatchesOracle grows every case with the presorted grower and with
// the per-node stable-sort oracle and requires identical Save bytes — for
// classifier and regressor, on all rows and on a row subset — and that both
// consumed the per-split feature shuffle identically.
func TestGrowerMatchesOracle(t *testing.T) {
	rng := xrand.New(20260927)
	splits := 0
	for trial := 0; trial < 400; trial++ {
		x, labels, targets, numClasses := randomCase(rng)
		n, d := len(x), len(x[0])
		p := randomParams(rng, n, d)
		seed := rng.Uint64()

		var inBag []bool
		idx := make([]int, 0, n)
		if rng.Bool(0.5) {
			inBag = make([]bool, n)
			inBag[rng.Intn(n)] = true
			for i := range inBag {
				inBag[i] = inBag[i] || rng.Bool(0.6)
			}
		}
		for i := 0; i < n; i++ {
			if inBag == nil || inBag[i] {
				idx = append(idx, i)
			}
		}

		for _, task := range []struct {
			name       string
			y          []float64
			numClasses int
		}{{"classifier", labels, numClasses}, {"regressor", targets, 0}} {
			ds := &mlmodel.Dataset{X: x, Y: task.y, Names: nil}
			m, err := NewMatrix(ds)
			if err != nil {
				t.Fatal(err)
			}
			gp, op := p, p
			gp.RNG, op.RNG = xrand.New(seed), xrand.New(seed)
			got, err := m.fit(task.y, inBag, task.numClasses, gp)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleFit(ds.Subset(idx), task.numClasses, op)
			if g, w := saveBytes(t, got), saveBytes(t, want); !bytes.Equal(g, w) {
				t.Fatalf("trial %d %s: n=%d d=%d bag=%d %+v\n grower %s oracle %s", trial, task.name, n, d, len(idx), p, g, w)
			}
			if gp.RNG.State() != op.RNG.State() {
				t.Fatalf("trial %d %s: feature shuffles drew differently", trial, task.name)
			}
			splits += got.NumLeaves() - 1

			// A second fit on the same matrix reuses its scratch.
			gp.RNG = xrand.New(seed)
			again, err := m.fit(task.y, inBag, task.numClasses, gp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saveBytes(t, again), saveBytes(t, got)) {
				t.Fatalf("trial %d %s: refit on a used matrix differs", trial, task.name)
			}
		}
	}
	if splits < 2000 {
		t.Fatalf("only %d splits compared; the cases are too easy", splits)
	}
}

// The package-level entry points are the all-rows case of the same grower.
func TestFitEntryPointsMatchOracle(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 50; trial++ {
		x, labels, targets, numClasses := randomCase(rng)
		p := randomParams(rng, len(x), len(x[0]))
		p.MaxFeatures = 0
		names := make([]string, len(x[0]))
		for f := range names {
			names[f] = fmt.Sprintf("x%d", f)
		}
		cds := &mlmodel.Dataset{X: x, Y: labels, Names: names}
		c, err := FitClassifier(cds, numClasses, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, c), saveBytes(t, oracleFit(cds, numClasses, p))) {
			t.Fatalf("trial %d: FitClassifier differs from the oracle", trial)
		}
		rds := &mlmodel.Dataset{X: x, Y: targets, Names: names}
		r, err := FitRegressor(rds, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, r), saveBytes(t, oracleFit(rds, 0, p))) {
			t.Fatalf("trial %d: FitRegressor differs from the oracle", trial)
		}
	}
}

// TestThresholdSeparatesAdjacentFloats: the parent took (a+b)/2, which rounds
// to b when a and b are adjacent floats and a's low mantissa bit is set, so
// "x <= thr" sent both groups left and the fit silently gave up on the
// split; near MaxFloat64 the same sum overflowed to +Inf.
func TestThresholdSeparatesAdjacentFloats(t *testing.T) {
	odd := math.Nextafter(1, 2)
	for _, tc := range []struct {
		name string
		a, b float64
	}{
		{"adjacent, low bit set", odd, math.Nextafter(odd, 2)},
		{"adjacent, low bit clear", 1, odd},
		{"adjacent negatives", -math.Nextafter(odd, 2), -odd},
		{"sum overflows", math.MaxFloat64 / 2 * 1.5, math.MaxFloat64},
		{"sum overflows, negative", -math.MaxFloat64, -math.MaxFloat64 / 2 * 1.5},
		{"whole range", -math.MaxFloat64, math.MaxFloat64},
		{"smallest subnormals", 0, math.SmallestNonzeroFloat64},
	} {
		var x [][]float64
		var y []float64
		for i := 0; i < 10; i++ {
			x = append(x, []float64{tc.a}, []float64{tc.b})
			y = append(y, 0, 1)
		}
		ds := &mlmodel.Dataset{X: x, Y: y}
		reg, err := FitRegressor(ds, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if pa, pb := reg.Predict([]float64{tc.a}), reg.Predict([]float64{tc.b}); pa != 0 || pb != 1 {
			t.Errorf("%s: regressor predicts %v and %v, want 0 and 1", tc.name, pa, pb)
		}
		cls, err := FitClassifier(ds, 2, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if ca, cb := cls.PredictClass([]float64{tc.a}), cls.PredictClass([]float64{tc.b}); ca != 0 || cb != 1 {
			t.Errorf("%s: classifier predicts %d and %d, want 0 and 1", tc.name, ca, cb)
		}
	}
}

func TestNonFiniteInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		x    [][]float64
		y    []float64
		want string
	}{
		{"NaN feature", [][]float64{{1, 2}, {3, nan}, {5, 6}}, []float64{0, 1, 0}, "row 1 feature 1 (b) is NaN"},
		{"+Inf feature", [][]float64{{1, 2}, {3, 4}, {inf, 6}}, []float64{0, 1, 0}, "row 2 feature 0 (a) is +Inf"},
		{"-Inf feature", [][]float64{{-inf, 2}, {3, 4}, {5, 6}}, []float64{0, 1, 0}, "row 0 feature 0 (a) is -Inf"},
		{"NaN target", [][]float64{{1, 2}, {3, 4}, {5, 6}}, []float64{0, nan, 0}, "row 1 target is NaN"},
		{"Inf target", [][]float64{{1, 2}, {3, 4}, {5, 6}}, []float64{0, 1, -inf}, "row 2 target is -Inf"},
	} {
		ds := &mlmodel.Dataset{X: tc.x, Y: tc.y, Names: []string{"a", "b"}}
		if _, err := FitRegressor(ds, Params{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FitRegressor error %v, want it to contain %q", tc.name, err, tc.want)
		}
		if _, err := FitClassifier(ds, 2, Params{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FitClassifier error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func TestMatrixFitRejectsBadShapes(t *testing.T) {
	m, err := NewMatrix(&mlmodel.Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitRegressor([]float64{1, 2}, nil, Params{}); err == nil {
		t.Error("short target slice accepted")
	}
	if _, err := m.FitRegressor([]float64{1, 2, 3}, []bool{true}, Params{}); err == nil {
		t.Error("short bag accepted")
	}
	if _, err := m.FitRegressor([]float64{1, 2, 3}, make([]bool, 3), Params{}); err == nil {
		t.Error("empty bag accepted")
	}
}

// TestFitAllocationsScaleWithNodes: after the matrix is built, a fit
// allocates its nodes and a constant — nothing per node per feature, which is
// what the per-node sort cost (an order slice, a closure and two histograms
// for every feature of every node).
func TestFitAllocationsScaleWithNodes(t *testing.T) {
	for _, d := range []int{2, 16} {
		rng := xrand.New(11)
		n := 2000
		x := make([][]float64, n)
		labels, targets := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = make([]float64, d)
			for f := range x[i] {
				x[i][f] = float64(rng.Intn(40))
			}
			targets[i] = x[i][0]*x[i][1] + rng.Norm(0, 1)
			labels[i] = float64(int(x[i][0]+x[i][1]) % 3)
		}
		p := Params{MaxDepth: 8, MinSamplesLeaf: 3}

		m, err := NewMatrix(&mlmodel.Dataset{X: x, Y: targets})
		if err != nil {
			t.Fatal(err)
		}
		var tr *Tree
		fit := func(y []float64, numClasses int) func() {
			return func() {
				if tr, err = m.fit(y, nil, numClasses, p); err != nil {
					t.Fatal(err)
				}
			}
		}
		allocs := testing.AllocsPerRun(3, fit(targets, 0))
		nodes := float64(2*tr.NumLeaves() - 1)
		if nodes < 100 {
			t.Fatalf("d=%d: only %v nodes", d, nodes)
		}
		if allocs > nodes+4 {
			t.Errorf("d=%d regressor: %v allocations for %v nodes, want ≤ nodes+4", d, allocs, nodes)
		}
		allocs = testing.AllocsPerRun(3, fit(labels, 3))
		nodes = float64(2*tr.NumLeaves() - 1)
		// A classification node also owns its class histogram.
		if allocs > 2*nodes+6 {
			t.Errorf("d=%d classifier: %v allocations for %v nodes, want ≤ 2·nodes+6", d, allocs, nodes)
		}
	}
}
