package gbdt

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/ml/dtree"
	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

func nonlinearData(n int, seed uint64) *mlmodel.Dataset {
	rng := xrand.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*4, rng.Float64()*4
		x[i] = []float64{a, b}
		y[i] = math.Sin(a)*3 + b*b*0.5 + rng.Norm(0, 0.1)
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	return ds
}

func TestBoostingFitsNonlinear(t *testing.T) {
	train := nonlinearData(800, 1)
	test := nonlinearData(200, 2)
	m, err := Fit(train, Params{NumRounds: 120, LearningRate: 0.1, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	pred := mlmodel.PredictAll(m, test.X)
	if r2 := mlmodel.R2(pred, test.Y); r2 < 0.9 {
		t.Fatalf("gbdt R2 = %v, want ≥0.9", r2)
	}
}

func TestMoreRoundsReduceTrainError(t *testing.T) {
	ds := nonlinearData(400, 3)
	few, _ := Fit(ds, Params{NumRounds: 5})
	many, _ := Fit(ds, Params{NumRounds: 80})
	// On one dataset R² is 1 − MSE/variance, so a higher R² is a lower
	// squared training error.
	r2Few := mlmodel.R2(mlmodel.PredictAll(few, ds.X), ds.Y)
	r2Many := mlmodel.R2(mlmodel.PredictAll(many, ds.X), ds.Y)
	if r2Many <= r2Few {
		t.Fatalf("boosting did not improve: R² %v → %v", r2Few, r2Many)
	}
}

func TestPresets(t *testing.T) {
	ds := nonlinearData(300, 4)
	for _, p := range []Params{LightGBMStyle(), XGBoostStyle()} {
		m, err := Fit(ds, p)
		if err != nil {
			t.Fatal(err)
		}
		pred := mlmodel.PredictAll(m, ds.X)
		if r2 := mlmodel.R2(pred, ds.Y); r2 < 0.8 {
			t.Fatalf("preset %+v R2 = %v", p, r2)
		}
	}
}

func TestEmptyRejected(t *testing.T) {
	if _, err := Fit(&mlmodel.Dataset{}, Params{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{7, 7, 7}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	m, err := Fit(ds, Params{NumRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{2}); math.Abs(p-7) > 1e-9 {
		t.Fatalf("constant prediction = %v", p)
	}
}

func TestSubsampleStillLearns(t *testing.T) {
	ds := nonlinearData(500, 5)
	m, err := Fit(ds, Params{NumRounds: 100, Subsample: 0.5, seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pred := mlmodel.PredictAll(m, ds.X)
	if r2 := mlmodel.R2(pred, ds.Y); r2 < 0.85 {
		t.Fatalf("subsampled gbdt R2 = %v", r2)
	}
	if len(m.trees) != 100 {
		t.Fatalf("%d trees", len(m.trees))
	}
}

// tieHeavyData has few distinct values per column and duplicated rows, so
// every split scan crosses tie groups.
func tieHeavyData(n int, seed uint64) *mlmodel.Dataset {
	rng := xrand.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b, c := float64(rng.Intn(4)), float64(rng.Intn(9)), float64(rng.Intn(30))
		x[i] = []float64{a, b, c, 2 * a}
		y[i] = a*b + math.Sqrt(c) + rng.Norm(0, 0.3)
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	return ds
}

func TestSameSeedSamePredictionBits(t *testing.T) {
	ds := tieHeavyData(600, 21)
	p := Params{NumRounds: 40, MaxDepth: 4, MinLeaf: 3, Subsample: 0.7, seed: 3}
	a, err := Fit(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range ds.X {
		if pa, pb := a.Predict(row), b.Predict(row); math.Float64bits(pa) != math.Float64bits(pb) {
			t.Fatalf("row %d: %v vs %v from one seed", i, pa, pb)
		}
	}
}

// TestFitMatchesSubsetBoosting: Fit grows each round on a shared presorted
// matrix and a bag of row marks. That must be the boosting loop written the
// plain way — a fresh rng.Perm(n)[:k] per round, taken in ascending row
// order, copied out with Dataset.Subset and handed to dtree.FitRegressor —
// bit for bit.
func TestFitMatchesSubsetBoosting(t *testing.T) {
	ds := tieHeavyData(500, 22)
	for _, p := range []Params{
		{NumRounds: 25, MaxDepth: 3, MinLeaf: 5, Subsample: 0.6, seed: 4},
		{NumRounds: 25, MaxDepth: 5, MinLeaf: 1, LearningRate: 0.3, seed: 5},
	} {
		m, err := Fit(ds, p)
		if err != nil {
			t.Fatal(err)
		}
		p = p.normalized()
		n := ds.Len()
		rng := xrand.New(p.seed + 0xb005)
		pred := make([]float64, n)
		for i := range pred {
			pred[i] = mlmodel.Mean(ds.Y)
		}
		for round := 0; round < p.NumRounds; round++ {
			resid := make([]float64, n)
			for i := range resid {
				resid[i] = ds.Y[i] - pred[i]
			}
			rds := &mlmodel.Dataset{X: ds.X, Y: resid}
			if p.Subsample < 1 {
				idx := rng.Perm(n)[:int(float64(n)*p.Subsample)]
				sort.Ints(idx)
				rds = rds.Subset(idx)
			}
			tr, err := dtree.FitRegressor(rds, dtree.Params{MaxDepth: p.MaxDepth, MinSamplesLeaf: p.MinLeaf})
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range ds.X {
				pred[i] += p.LearningRate * tr.Predict(row)
			}
		}
		for i, row := range ds.X {
			if got := m.Predict(row); math.Float64bits(got) != math.Float64bits(pred[i]) {
				t.Fatalf("subsample %v row %d: Fit predicts %v, plain boosting %v", p.Subsample, i, got, pred[i])
			}
		}
	}
}

func TestNonFiniteInputsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y float64 // planted in row 3
		want string
	}{
		{"NaN feature", math.NaN(), 1, "row 3 feature 2 (f2) is NaN"},
		{"Inf feature", math.Inf(1), 1, "row 3 feature 2 (f2) is +Inf"},
		{"NaN target", 1, math.NaN(), "row 3 target is NaN"},
		{"Inf target", 1, math.Inf(-1), "row 3 target is -Inf"},
	} {
		ds := tieHeavyData(10, 23)
		ds.X[3][2], ds.Y[3] = tc.x, tc.y
		if _, err := Fit(ds, Params{NumRounds: 2}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Fit error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}
