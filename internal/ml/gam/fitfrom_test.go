package gam

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ml/mlmodel"
)

// zeroFrom returns the start Fit hands its boosting path for ds: μ = mean(y)
// and, per feature, m's edges with a zero shape.
func zeroFrom(m *Model, ds *mlmodel.Dataset) *Model {
	z := &Model{intercept: mlmodel.Mean(ds.Y)}
	for _, f := range m.feats {
		z.feats = append(z.feats, &feature{name: f.name, edges: f.edges, score: make([]float64, f.numBins())})
	}
	return z
}

// TestFitFromZeroModelIsFit: Fit and FitFrom are one path, so FitFrom from a
// zero model carrying Fit's edges serializes to Fit's bytes, whether it keeps
// those edges or re-bins every feature.
func TestFitFromZeroModelIsFit(t *testing.T) {
	all := []int{0, 1, 2, 3, 4, 5}
	for _, n := range []int{1, 40, 700} {
		ds := tieHeavyTable(n, uint64(200+n))
		for _, maxBins := range []int{2, 64, 300} {
			p := Params{MaxBins: maxBins, Rounds: 7, LearningRate: 0.3}
			want, err := Fit(ds, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, fresh := range [][]int{nil, all} {
				name := fmt.Sprintf("n=%d/bins=%d/fresh=%v", n, maxBins, fresh)
				got, err := FitFrom(zeroFrom(want, ds), ds, p, fresh)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
					t.Fatalf("%s: FitFrom a zero model and Fit serialize differently", name)
				}
			}
		}
	}
}

// TestFitFromKeepsEdgesAndRebinsFresh: a kept feature keeps prev's edges
// whatever the new data, a fresh one takes the new data's quantile edges,
// and the counts are the new data's.
func TestFitFromKeepsEdgesAndRebinsFresh(t *testing.T) {
	p := Params{MaxBins: 16, Rounds: 20}
	old, next := tieHeavyTable(500, 1), tieHeavyTable(900, 2)
	prev, err := Fit(old, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FitFrom(prev, next, p, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	for j := range m.feats {
		want := prev.feats[j].edges
		if j == 4 {
			want = quantileEdges(oracleColumn(next.X, j), p.MaxBins)
		}
		if !reflect.DeepEqual(m.feats[j].edges, want) {
			t.Errorf("feature %d: edges %v, want %v", j, m.feats[j].edges, want)
		}
		total := 0
		for _, c := range m.feats[j].count {
			total += c
		}
		if total != next.Len() {
			t.Errorf("feature %d: counts sum to %d rows, want %d", j, total, next.Len())
		}
	}
	// Fine-tuning from prev fits the new rows better than prev does.
	mse := func(m *Model) float64 {
		s := 0.0
		for i, x := range next.X {
			d := m.Predict(x) - next.Y[i]
			s += d * d
		}
		return s / float64(next.Len())
	}
	if a, b := mse(m), mse(prev); a >= b {
		t.Errorf("warm fit's MSE %v on the new rows is not below prev's %v", a, b)
	}
}

// TestFitFromRejectsNonFinite: the warm path keeps Fit's NaN/±Inf rejection,
// naming the row and feature, on kept and fresh features alike.
func TestFitFromRejectsNonFinite(t *testing.T) {
	prev, err := Fit(tieHeavyTable(40, 3), Params{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		poison func(ds *mlmodel.Dataset)
		want   string
	}{
		{"NaN kept feature", func(ds *mlmodel.Dataset) { ds.X[7][1] = math.NaN() }, "row 7 feature 1 (hour)"},
		{"+Inf fresh feature", func(ds *mlmodel.Dataset) { ds.X[0][5] = math.Inf(1) }, "row 0 feature 5 (dense)"},
		{"-Inf kept feature", func(ds *mlmodel.Dataset) { ds.X[39][0] = math.Inf(-1) }, "row 39 feature 0 (gpus)"},
		{"NaN target", func(ds *mlmodel.Dataset) { ds.Y[3] = math.NaN() }, "row 3 target"},
		{"Inf target", func(ds *mlmodel.Dataset) { ds.Y[12] = math.Inf(1) }, "row 12 target"},
	} {
		ds := tieHeavyTable(40, 1)
		c.poison(ds)
		_, err := FitFrom(prev, ds, Params{Rounds: 3}, []int{5})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestFitFromRejectsMismatches(t *testing.T) {
	ds := tieHeavyTable(40, 1)
	prev, err := Fit(ds, Params{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	narrow := &mlmodel.Dataset{Y: ds.Y, Names: ds.Names[:5]}
	for _, row := range ds.X {
		narrow.X = append(narrow.X, row[:5])
	}
	// A loaded model's edges come from outside the program: one with more
	// bins than a uint16 index holds is rejected, not truncated.
	wide := &Model{}
	for _, f := range prev.feats {
		wide.feats = append(wide.feats, &feature{name: f.name, edges: f.edges, score: f.score})
	}
	wide.feats[2] = &feature{name: "const", edges: make([]float64, math.MaxUint16+1), score: make([]float64, math.MaxUint16+2)}
	for i := range wide.feats[2].edges {
		wide.feats[2].edges[i] = float64(i)
	}
	for _, c := range []struct {
		name  string
		prev  *Model
		ds    *mlmodel.Dataset
		fresh []int
		want  string
	}{
		{"width", prev, narrow, nil, "5 features, the model 6"},
		{"fresh index", prev, ds, []int{6}, "fresh feature 6"},
		{"negative fresh index", prev, ds, []int{-1}, "fresh feature -1"},
		{"empty", prev, &mlmodel.Dataset{}, nil, "empty"},
		{"bins beyond the index", wide, ds, nil, "feature 2 (const) has 65537 bins"},
		{"wide feature re-binned", wide, ds, []int{2}, ""},
	} {
		_, err := FitFrom(c.prev, c.ds, Params{Rounds: 3}, c.fresh)
		if c.want == "" && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestFitFromLeavesPrevUntouched: FitFrom only reads prev — its Save bytes
// are the same after two goroutines warm-fit from it at once (one fitted
// model is shared by every clone of an estimator), and both fits agree.
func TestFitFromLeavesPrevUntouched(t *testing.T) {
	p := Params{MaxBins: 32, Rounds: 10}
	prev, err := Fit(tieHeavyTable(600, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	before := saveBytes(t, prev)
	next := tieHeavyTable(800, 5)
	var wg sync.WaitGroup
	got := make([]*Model, 2)
	errs := make([]error, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = FitFrom(prev, next, p, []int{3})
			if errs[g] == nil {
				got[g].ApplyMonotonic(0)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saveBytes(t, prev), before) {
		t.Fatal("FitFrom wrote to prev")
	}
	if !bytes.Equal(saveBytes(t, got[0]), saveBytes(t, got[1])) {
		t.Fatal("two warm fits from one prev differ")
	}
}

// TestFitFromMatchesOracle is the warm path's bit-identity contract: FitFrom
// serializes to the bytes oracleFitFrom — the binning and boosting loop that
// preceded per-distinct-value binning — gives, re-binning no, some or every
// feature, over the bin counts that cross n and the 256-bin line.
func TestFitFromMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 40, 700, 2500} {
		old, next := tieHeavyTable(n+300, uint64(300+n)), tieHeavyTable(n, uint64(400+n))
		for _, maxBins := range []int{2, 64, 300} {
			prev, err := Fit(old, Params{MaxBins: maxBins, Rounds: 9, LearningRate: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			for _, fresh := range [][]int{nil, {3, 4, 5}, {0, 1, 2, 3, 4, 5}} {
				name := fmt.Sprintf("n=%d/bins=%d/fresh=%v", n, maxBins, fresh)
				p := Params{MaxBins: maxBins, Rounds: 7, LearningRate: 0.3}
				got, err := FitFrom(prev, next, p, fresh)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := oracleFitFrom(prev, next, p, fresh)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
					t.Fatalf("%s: FitFrom and the oracle serialize differently", name)
				}
			}
		}
	}
}

// TestFitFromAllocsIndependentOfRows: a fit allocates per column and per
// distinct value, never per row — FitFrom allocates as often on a table as on
// the same table four times over.
func TestFitFromAllocsIndependentOfRows(t *testing.T) {
	base := tieHeavyTable(400, 6)
	prev, err := Fit(base, Params{MaxBins: 64, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	quad := &mlmodel.Dataset{Names: base.Names}
	for k := 0; k < 4; k++ {
		quad.X = append(quad.X, base.X...)
		quad.Y = append(quad.Y, base.Y...)
	}
	allocs := func(ds *mlmodel.Dataset) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := FitFrom(prev, ds, Params{MaxBins: 64, Rounds: 5}, []int{3, 4, 5}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, four := allocs(base), allocs(quad); one != four {
		t.Fatalf("FitFrom allocates %v times on %d rows and %v on %d", one, base.Len(), four, quad.Len())
	}
}
