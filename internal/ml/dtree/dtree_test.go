package dtree

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

func xorDataset() *mlmodel.Dataset {
	// XOR-ish pattern a depth-2 tree must solve exactly.
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := float64(i%2) + float64(i%7)*0.01
		b := float64((i/2)%2) + float64(i%5)*0.01
		x = append(x, []float64{a, b})
		label := 0.0
		if (a > 0.5) != (b > 0.5) {
			label = 1
		}
		y = append(y, label)
	}
	ds, _ := mlmodel.NewDataset(x, y, []string{"a", "b"})
	return ds
}

func TestClassifierLearnsXOR(t *testing.T) {
	ds := xorDataset()
	tr, err := FitClassifier(ds, 2, Params{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range ds.X {
		if tr.PredictClass(row) == int(ds.Y[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.99 {
		t.Fatalf("XOR accuracy %v, want ~1.0", acc)
	}
}

func TestClassifierRejectsBadLabels(t *testing.T) {
	x := [][]float64{{1}, {2}}
	if _, err := FitClassifier(&mlmodel.Dataset{X: x, Y: []float64{0, 2}}, 2, Params{}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := FitClassifier(&mlmodel.Dataset{X: x, Y: []float64{0, 0.5}}, 2, Params{}); err == nil {
		t.Fatal("non-integer label accepted")
	}
	if _, err := FitClassifier(&mlmodel.Dataset{}, 2, Params{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := FitClassifier(&mlmodel.Dataset{X: x, Y: []float64{0, 1}}, 1, Params{}); err == nil {
		t.Fatal("single-class problem accepted")
	}
}

func TestRegressorFitsStep(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		v := float64(i)
		x = append(x, []float64{v})
		if v < 50 {
			y = append(y, 10)
		} else {
			y = append(y, 20)
		}
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	tr, err := FitRegressor(ds, Params{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p := tr.Predict([]float64{10}); math.Abs(p-10) > 1e-9 {
		t.Fatalf("predict(10) = %v", p)
	}
	if p := tr.Predict([]float64{90}); math.Abs(p-20) > 1e-9 {
		t.Fatalf("predict(90) = %v", p)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	ds := xorDataset()
	tr, _ := FitClassifier(ds, 2, Params{MaxDepth: 1})
	if d := tr.Depth(); d > 1 {
		t.Fatalf("depth %d exceeds MaxDepth 1", d)
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	rng := xrand.New(1)
	var x [][]float64
	var y []float64
	for i := 0; i < 64; i++ {
		x = append(x, []float64{rng.Float64()})
		y = append(y, rng.Float64())
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	tr, _ := FitRegressor(ds, Params{MinSamplesLeaf: 10})
	// With ≥10 samples per leaf and 64 rows, at most 6 leaves.
	if l := tr.NumLeaves(); l > 6 {
		t.Fatalf("too many leaves %d for MinSamplesLeaf=10", l)
	}
}

func TestPruningShrinksTree(t *testing.T) {
	rng := xrand.New(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a := rng.Float64()
		x = append(x, []float64{a, rng.Float64()})
		label := 0.0
		if a > 0.5 {
			label = 1
		}
		// 10 % label noise induces spurious splits.
		if rng.Bool(0.1) {
			label = 1 - label
		}
		y = append(y, label)
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	tr, _ := FitClassifier(ds, 2, Params{})
	before := tr.NumLeaves()
	tr.PruneCCP(0.01)
	after := tr.NumLeaves()
	if after >= before {
		t.Fatalf("pruning did not shrink: %d → %d", before, after)
	}
	// The dominant signal must survive.
	if tr.PredictClass([]float64{0.9, 0.5}) != 1 || tr.PredictClass([]float64{0.1, 0.5}) != 0 {
		t.Fatal("pruning destroyed the main split")
	}
}

func TestPruneToRootWithHugeAlpha(t *testing.T) {
	ds := xorDataset()
	tr, _ := FitClassifier(ds, 2, Params{})
	tr.PruneCCP(1e9)
	if tr.NumLeaves() != 1 {
		t.Fatalf("alpha=∞ should collapse to a single leaf, got %d leaves", tr.NumLeaves())
	}
}

func TestFeatureImportances(t *testing.T) {
	// Only feature 0 carries signal.
	rng := xrand.New(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		if a > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	ds, _ := mlmodel.NewDataset(x, y, []string{"signal", "noise"})
	tr, _ := FitClassifier(ds, 2, Params{MaxDepth: 4})
	imp := tr.FeatureImportances()
	if len(imp) != 2 {
		t.Fatalf("importances length %d", len(imp))
	}
	if imp[0] < 0.9 {
		t.Fatalf("signal feature importance %v, want ≥0.9 (noise=%v)", imp[0], imp[1])
	}
	if s := imp[0] + imp[1]; math.Abs(s-1) > 1e-9 {
		t.Fatalf("importances sum to %v", s)
	}
}

// TestFeatureImportancesWithoutNames: a tree fit on a dataset with no
// feature names sizes its importances by the highest feature it splits on.
func TestFeatureImportancesWithoutNames(t *testing.T) {
	rng := xrand.New(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		y = append(y, math.Floor(2*b))
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	tr, _ := FitClassifier(ds, 2, Params{MaxDepth: 4})
	imp := tr.FeatureImportances()
	if len(imp) != 2 || imp[1] < 0.9 {
		t.Fatalf("importances %v, want two with the signal on feature 1", imp)
	}
}

func TestRenderContainsFeatureNames(t *testing.T) {
	ds := xorDataset()
	tr, _ := FitClassifier(ds, 2, Params{MaxDepth: 3})
	out := tr.Render([]string{"No", "Yes"})
	if !strings.Contains(out, "a ≤") && !strings.Contains(out, "b ≤") {
		t.Fatalf("render missing feature names:\n%s", out)
	}
	if !strings.Contains(out, "Yes") || !strings.Contains(out, "No") {
		t.Fatalf("render missing class names:\n%s", out)
	}
}

func TestRandomFeatureSubsetStillLearns(t *testing.T) {
	ds := xorDataset()
	tr, err := FitClassifier(ds, 2, Params{MaxDepth: 6, MaxFeatures: 1, RNG: xrand.New(7)})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range ds.X {
		if tr.PredictClass(row) == int(ds.Y[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.9 {
		t.Fatalf("feature-subset tree accuracy %v", acc)
	}
}

func TestConstantTargetSingleLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	tr, _ := FitRegressor(ds, Params{})
	if tr.NumLeaves() != 1 {
		t.Fatalf("constant target should be a single leaf, got %d", tr.NumLeaves())
	}
	if p := tr.Predict([]float64{99}); p != 5 {
		t.Fatalf("predict = %v, want 5", p)
	}
}

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int { return countLeaves(t.root) }

// Depth returns the maximum depth (a lone root counts as 0).
func (t *Tree) Depth() int { return depth(t.root) - 1 }

func countLeaves(n *node) int {
	if n.isLeaf() {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

func depth(n *node) int {
	if n.isLeaf() {
		return 1
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
