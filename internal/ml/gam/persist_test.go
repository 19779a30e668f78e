package gam

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	n := 600
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*4, rng.Float64()*4
		x[i] = []float64{a, b}
		y[i] = 2*a - b + a*b
	}
	ds, _ := mlmodel.NewDataset(x, y, []string{"a", "b"})
	m, err := Fit(ds, Params{Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got, want := loaded.Predict(ds.X[i]), m.Predict(ds.X[i]); got != want {
			t.Fatalf("prediction drift after round trip: %v vs %v", got, want)
		}
	}
	if loaded.feats[0].name != "a" {
		t.Fatal("feature names lost")
	}
	// Explanations still work.
	i1, c1 := m.Explain(ds.X[0])
	i2, c2 := loaded.Explain(ds.X[0])
	if i1 != i2 || len(c1) != len(c2) {
		t.Fatal("explanations differ after round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Inconsistent bin counts.
	bad := `{"intercept":1,"features":[{"name":"x","edges":[1,2],"score":[0.1],"count":[5]}]}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Fatal("inconsistent feature accepted")
	}
}
