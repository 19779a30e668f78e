package gam

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ml/isotonic"
	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

func additiveData(n int, seed uint64) *mlmodel.Dataset {
	// y = 2·sin(x0) + x1² − 3·x2 + noise: purely additive, a GAM's home turf.
	rng := xrand.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Float64() * 6
		b := rng.Float64()*4 - 2
		c := rng.Float64()
		x[i] = []float64{a, b, c}
		y[i] = 2*math.Sin(a) + b*b - 3*c + rng.Norm(0, 0.1)
	}
	ds, _ := mlmodel.NewDataset(x, y, []string{"angle", "quad", "lin"})
	return ds
}

func TestFitsAdditiveFunction(t *testing.T) {
	train := additiveData(1500, 1)
	test := additiveData(400, 2)
	m, err := Fit(train, Params{Rounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	pred := mlmodel.PredictAll(m, test.X)
	if r2 := mlmodel.R2(pred, test.Y); r2 < 0.95 {
		t.Fatalf("GA2M R2 on additive data = %v", r2)
	}
}

func TestExplainSumsToPrediction(t *testing.T) {
	ds := additiveData(500, 4)
	m, _ := Fit(ds, Params{Rounds: 100})
	for i := 0; i < 20; i++ {
		x := ds.X[i]
		intercept, contribs := m.Explain(x)
		sum := intercept
		for _, c := range contribs {
			sum += c.Score
		}
		if math.Abs(sum-m.Predict(x)) > 1e-9 {
			t.Fatalf("explanation sums to %v, prediction is %v", sum, m.Predict(x))
		}
	}
}

func TestGlobalImportanceIdentifiesSignal(t *testing.T) {
	// Feature 0 carries all the signal; 1 is noise.
	rng := xrand.New(5)
	n := 1000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x[i] = []float64{a, b}
		y[i] = 4 * a
	}
	ds, _ := mlmodel.NewDataset(x, y, []string{"signal", "noise"})
	m, _ := Fit(ds, Params{Rounds: 150})
	imp := m.GlobalImportance()
	if imp[0] < 10*imp[1] {
		t.Fatalf("importance signal=%v noise=%v", imp[0], imp[1])
	}
	if m.feats[0].name != "signal" {
		t.Fatal("feature name lost")
	}
}

func TestShapeFunctionRecoversLinearSlope(t *testing.T) {
	rng := xrand.New(6)
	n := 2000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Float64() * 10
		x[i] = []float64{a}
		y[i] = 2 * a
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	m, _ := Fit(ds, Params{Rounds: 300})
	shape := m.ShapeFunction(0)
	if len(shape) < 8 {
		t.Fatalf("too few bins: %d", len(shape))
	}
	// Scores must increase across bins (up to small noise at the ends).
	first, last := shape[0].Score, shape[len(shape)-1].Score
	if last-first < 10 {
		t.Fatalf("shape range %v..%v too flat for slope-2 over [0,10]", first, last)
	}
	// Intercept + mid-bin score ≈ y at the middle.
	if math.Abs(m.Predict([]float64{5})-10) > 1.0 {
		t.Fatalf("predict(5) = %v, want ≈10", m.Predict([]float64{5}))
	}
}

func TestMonotonicConstraint(t *testing.T) {
	// Noisy increasing relationship; PAV must make the shape monotone
	// without wrecking accuracy (§3.6.1).
	rng := xrand.New(7)
	n := 800
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Float64() * 10
		x[i] = []float64{a}
		y[i] = a + rng.Norm(0, 2)
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	m, _ := Fit(ds, Params{Rounds: 200})
	m.ApplyMonotonic(0)
	shape := m.ShapeFunction(0)
	scores := make([]float64, len(shape))
	for i, s := range shape {
		scores[i] = s.Score
	}
	if !isotonic.IsMonotoneNonDecreasing(scores) {
		t.Fatalf("shape not monotone after constraint: %v", scores)
	}
	pred := mlmodel.PredictAll(m, ds.X)
	if r2 := mlmodel.R2(pred, ds.Y); r2 < 0.5 {
		t.Fatalf("monotonic constraint destroyed fit: R2=%v", r2)
	}
}

func TestLowCardinalityFeatureBins(t *testing.T) {
	// A binary feature gets exactly 2 bins.
	x := [][]float64{{0}, {1}, {0}, {1}}
	y := []float64{1, 5, 1, 5}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	m, _ := Fit(ds, Params{Rounds: 200})
	if got := len(m.ShapeFunction(0)); got != 2 {
		t.Fatalf("binary feature has %d bins, want 2", got)
	}
	if math.Abs(m.Predict([]float64{0})-1) > 0.3 || math.Abs(m.Predict([]float64{1})-5) > 0.3 {
		t.Fatalf("binary fit wrong: %v %v", m.Predict([]float64{0}), m.Predict([]float64{1}))
	}
}

func TestConstantFeatureHandled(t *testing.T) {
	x := [][]float64{{3, 1}, {3, 2}, {3, 3}}
	y := []float64{1, 2, 3}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	m, err := Fit(ds, Params{Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.ShapeFunction(0)); got != 1 {
		t.Fatalf("constant feature has %d bins, want 1", got)
	}
	if p := m.Predict([]float64{3, 2}); math.Abs(p-2) > 0.3 {
		t.Fatalf("prediction %v", p)
	}
}

func TestEmptyRejected(t *testing.T) {
	if _, err := Fit(&mlmodel.Dataset{}, Params{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestCenteredShapes(t *testing.T) {
	// After centering, the count-weighted mean score of every unary term is
	// ~0, so the intercept equals the target mean on balanced data.
	ds := additiveData(800, 8)
	m, _ := Fit(ds, Params{Rounds: 150})
	for j := range m.feats {
		shape := m.ShapeFunction(j)
		var wsum, n float64
		for _, s := range shape {
			wsum += s.Score * float64(s.Count)
			n += float64(s.Count)
		}
		if math.Abs(wsum/n) > 1e-6 {
			t.Fatalf("term %d not centered: weighted mean %v", j, wsum/n)
		}
	}
}

// tieHeavyTable builds a seeded n × 6 table shaped like the estimator's
// input: a power-of-two categorical, an hour, a constant, a per-category mean
// (a function of column 0, so tied wherever it is), and two continuous
// columns whose cardinality passes 256 once n does.
func tieHeavyTable(n int, seed uint64) *mlmodel.Dataset {
	rng := xrand.New(seed)
	catMean := []float64{310.5, 1200, 1200, 86400.25, 7}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		c := rng.Intn(5)
		x[i] = []float64{
			float64(int(1) << c), float64(rng.Intn(24)), 3, catMean[c],
			rng.LogNormal(7, 1.5), math.Floor(rng.Float64()*1e4) / 8,
		}
		y[i] = catMean[c]*rng.LogNormal(0, 0.8) + 40*x[i][1] + x[i][0]*x[i][5]/50
	}
	return &mlmodel.Dataset{X: x, Y: y, Names: []string{"gpus", "hour", "const", "cat_mean", "lognorm", "dense"}}
}

func saveBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitMatchesOracle is the bit-identity contract: on every table shape
// and parameter set below, Fit serializes to the bytes the replaced loop
// produces, before and after the monotonic projection.
func TestFitMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 40, 700, 2500} { // 40 < every MaxBins but 2; 2500 rows fill 300 bins
		ds := tieHeavyTable(n, uint64(100+n))
		for _, maxBins := range []int{2, 64, 300} { // 300 crosses the 256-bin line
			for _, lr := range []float64{0.05, 0.3} {
				p := Params{MaxBins: maxBins, Rounds: 7, LearningRate: lr}
				name := fmt.Sprintf("n=%d/bins=%d/lr=%v", n, maxBins, lr)
				got, err := Fit(ds, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := oracleFit(ds, p)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
					t.Fatalf("%s: Fit and the oracle serialize differently", name)
				}
				got.ApplyMonotonic(0)
				want.ApplyMonotonic(0)
				if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
					t.Fatalf("%s: models differ after ApplyMonotonic", name)
				}
			}
		}
	}
	// Default parameters (300 rounds) on the estimator's bin count, once.
	ds := tieHeavyTable(1200, 9)
	p := Params{MaxBins: 64}
	got, _ := Fit(ds, p)
	want, _ := oracleFit(ds, p)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
		t.Fatal("300-round fit and the oracle serialize differently")
	}
}

func TestFitRejectsNonFinite(t *testing.T) {
	for _, c := range []struct {
		name   string
		poison func(ds *mlmodel.Dataset)
		want   string
	}{
		{"NaN feature", func(ds *mlmodel.Dataset) { ds.X[7][1] = math.NaN() }, "row 7 feature 1 (hour)"},
		{"+Inf feature", func(ds *mlmodel.Dataset) { ds.X[0][5] = math.Inf(1) }, "row 0 feature 5 (dense)"},
		{"-Inf feature", func(ds *mlmodel.Dataset) { ds.X[39][0] = math.Inf(-1) }, "row 39 feature 0 (gpus)"},
		{"NaN target", func(ds *mlmodel.Dataset) { ds.Y[3] = math.NaN() }, "row 3 target"},
		{"Inf target", func(ds *mlmodel.Dataset) { ds.Y[12] = math.Inf(1) }, "row 12 target"},
	} {
		ds := tieHeavyTable(40, 1)
		c.poison(ds)
		_, err := Fit(ds, Params{Rounds: 3})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestFitRejectsMaxBinsBeyondIndexWidth(t *testing.T) {
	ds := tieHeavyTable(10, 1)
	if _, err := Fit(ds, Params{MaxBins: 65537, Rounds: 1}); err == nil {
		t.Fatal("MaxBins 65537 accepted: a uint16 bin index cannot hold it")
	}
	if _, err := Fit(ds, Params{MaxBins: 65536, Rounds: 1}); err != nil {
		t.Fatalf("MaxBins 65536 rejected: %v", err)
	}
}

// defectColumn is TestQuantileEdgesKnownDefect's column: 700 rows over
// three small values, then 300 distinct ones.
func defectColumn() []float64 {
	var vals []float64
	for i := 0; i < 700; i++ {
		vals = append(vals, float64(i%3))
	}
	for i := 0; i < 300; i++ {
		vals = append(vals, float64(10+i))
	}
	return vals
}

// TestQuantileEdgesKnownDefect pins a defect, it does not bless it. In its
// sorted-column form (quantileEdges), the edges are read from a slice
// deduplicated into its own prefix; in the count form boostFrom uses
// (distinct.edges), a rank r below the number of distinct values reads the
// r-th distinct value, not the r-th order statistic. Either way, for a
// column with more distinct values than bins the low quantiles do not come
// from the data: the b/8 quantiles of the column below are [0 1 2 59 184].
// Fixing it moves every fitted GA²M bit and every golden digest, so the fix
// is its own model re-baseline (ROADMAP item 2(b)); until then this test
// keeps a refactor from changing the output by accident.
func TestQuantileEdgesKnownDefect(t *testing.T) {
	vals := defectColumn()
	today := []float64{131, 256}
	if got := quantileEdges(vals, 8); !reflect.DeepEqual(got, today) {
		t.Fatalf("quantileEdges = %v, pinned %v (if this is the 2(b) fix, re-baseline and pin [0 1 2 59 184])", got, today)
	}
	if got, _ := countEdges(t, vals, 8); !reflect.DeepEqual(got, today) {
		t.Fatalf("distinct.edges = %v, pinned %v (if this is the 2(b) fix, re-baseline and pin [0 1 2 59 184])", got, today)
	}
}

// countEdges codes vals as a one-feature column and returns its count-form
// edges and the coded column.
func countEdges(t *testing.T, vals []float64, maxBins int) ([]float64, *distinct) {
	t.Helper()
	ds := &mlmodel.Dataset{X: make([][]float64, len(vals)), Y: make([]float64, len(vals))}
	for i, v := range vals {
		ds.X[i] = []float64{v}
	}
	c := &distinct{ids: make([]int32, len(vals))}
	if err := c.code(ds, 0); err != nil {
		t.Fatal(err)
	}
	return c.edges(maxBins), c
}

// FuzzEdgesFromCounts holds the count-form binning to the sorted-column
// oracle on any finite column: the edges equal quantileEdges' bit for bit,
// and every row's looked-up bin is feature.bin of its value. The one bit
// left unpinned is the sign of a zero edge on a column holding both zeros,
// which the oracle takes from sort.Float64s' unstable order and the count
// form from the first zero seen; binning cannot tell the two apart. data is
// one value per byte (a quarter-integer in [-32, 32), 0xff for -0) unless
// raw, then one per 8 bytes of float bits, NaN and ±Inf skipped.
func FuzzEdgesFromCounts(f *testing.F) {
	b := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	negZero := math.Copysign(0, -1)
	f.Add(b(negZero, 0, 1, negZero, 2, 0, 3, 4), true, uint16(2))
	f.Add(b(0, negZero, 0, 5, -5, 1e-300, -1e-300), true, uint16(3))
	f.Add([]byte{0xff, 0, 0, 0xff, 4, 8, 0xfc, 0, 0xff}, false, uint16(2))
	f.Add(b(7.5), true, uint16(64))                          // one value
	f.Add([]byte{3, 3, 3, 3}, false, uint16(2))              // one value, repeated
	f.Add([]byte{1, 9, 2, 8, 3, 7, 1, 9}, false, uint16(64)) // n < MaxBins
	f.Add([]byte("a column with more distinct values than bins, and ties"), false, uint16(8))
	f.Add(b(defectColumn()...), true, uint16(8))
	f.Fuzz(func(t *testing.T, data []byte, raw bool, bins uint16) {
		maxBins := 2 + int(bins%300)
		var vals []float64
		if raw {
			for ; len(data) >= 8; data = data[8:] {
				if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); v-v == 0 {
					vals = append(vals, v)
				}
			}
		} else {
			for _, c := range data {
				v := float64(int8(c)) / 4
				if c == 0xff {
					v = negZero
				}
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return
		}
		want := quantileEdges(vals, maxBins)
		got, c := countEdges(t, vals, maxBins)
		bothZeros := slices.ContainsFunc(vals, func(v float64) bool { return v == 0 && math.Signbit(v) }) &&
			slices.ContainsFunc(vals, func(v float64) bool { return v == 0 && !math.Signbit(v) })
		if len(got) != len(want) {
			t.Fatalf("maxBins %d: edges %v, oracle %v", maxBins, got, want)
		}
		for k := range got {
			if got[k] != want[k] || !bothZeros && math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("maxBins %d: edge %d is %v, oracle %v (all: %v vs %v)", maxBins, k, got[k], want[k], got, want)
			}
		}
		feat := &feature{edges: got}
		rows := 0
		for _, e := range c.vals {
			rows += e.n
		}
		if rows != len(vals) {
			t.Fatalf("distinct counts sum to %d rows, want %d", rows, len(vals))
		}
		for i, v := range vals {
			if e := c.vals[c.ids[i]]; e.v != v || feat.bin(e.v) != feat.bin(v) {
				t.Fatalf("row %d (%v) coded as %v", i, v, e.v)
			}
		}
	})
}

func TestFitAllocsIndependentOfRounds(t *testing.T) {
	ds := tieHeavyTable(300, 2)
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Fit(ds, Params{MaxBins: 16, Rounds: rounds}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(2), allocs(40); many != few {
		t.Fatalf("Fit allocates %v times at 2 rounds and %v at 40", few, many)
	}
}

// oracleFit is the Fit this package had before the column-major fused loop
// replaced it, verbatim but for its pair terms: a [][]int bin index, the
// per-bin step re-derived (division included) for every row, separate
// accumulate and apply passes. It survives here as the reference
// TestFitMatchesOracle compares against.
func oracleFit(ds *mlmodel.Dataset, p Params) (*Model, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("gam: empty dataset")
	}
	p = p.normalized()
	n := ds.Len()
	d := ds.NumFeatures()

	m := &Model{intercept: mlmodel.Mean(ds.Y)}
	m.feats = make([]*feature, d)

	// Precompute bin assignment per row per feature.
	binIdx := make([][]int, d)
	for j := 0; j < d; j++ {
		f := &feature{name: ds.FeatureName(j)}
		f.edges = quantileEdges(oracleColumn(ds.X, j), p.MaxBins)
		f.score = make([]float64, f.numBins())
		f.count = make([]int, f.numBins())
		idx := make([]int, n)
		for i := 0; i < n; i++ {
			b := f.bin(ds.X[i][j])
			idx[i] = b
			f.count[b]++
		}
		binIdx[j] = idx
		m.feats[j] = f
	}

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.intercept
	}

	// Cyclic boosting over unary terms.
	binSum := make([]float64, 0, p.MaxBins+1)
	for round := 0; round < p.Rounds; round++ {
		for j := 0; j < d; j++ {
			f := m.feats[j]
			nb := f.numBins()
			binSum = binSum[:0]
			for b := 0; b < nb; b++ {
				binSum = append(binSum, 0)
			}
			for i := 0; i < n; i++ {
				binSum[binIdx[j][i]] += ds.Y[i] - pred[i]
			}
			for b := 0; b < nb; b++ {
				if f.count[b] == 0 {
					continue
				}
				f.score[b] += p.LearningRate * binSum[b] / float64(f.count[b])
			}
			// Apply the same deltas to the cached predictions.
			for i := 0; i < n; i++ {
				b := binIdx[j][i]
				if f.count[b] != 0 {
					pred[i] += p.LearningRate * binSum[b] / float64(f.count[b])
				}
			}
		}
	}

	m.center()
	return m, nil
}

func oracleColumn(x [][]float64, j int) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = row[j]
	}
	return out
}

// quantileEdges is the binning boostFrom had before it binned each distinct
// value once, verbatim, defect included: ≤ maxBins-1 ascending cut points
// from the value distribution; duplicate quantiles collapse, so
// low-cardinality features get one bin per distinct value. It is the oracle
// distinct.edges is held to (FuzzEdgesFromCounts, TestQuantileEdgesKnownDefect).
func quantileEdges(vals []float64, maxBins int) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	uniq := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) <= 1 {
		return nil // single bin
	}
	if len(uniq) <= maxBins {
		// One bin per distinct value: edges halfway between neighbours.
		edges := make([]float64, len(uniq)-1)
		for i := 0; i+1 < len(uniq); i++ {
			edges[i] = (uniq[i] + uniq[i+1]) / 2
		}
		return edges
	}
	edges := make([]float64, 0, maxBins-1)
	for b := 1; b < maxBins; b++ {
		q := float64(b) / float64(maxBins)
		v := sorted[int(q*float64(len(sorted)-1))]
		if len(edges) == 0 || v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	return edges
}

// oracleFitFrom is FitFrom over oracleBoostFrom: the warm path as it was
// before each column was coded against its distinct values.
func oracleFitFrom(prev *Model, ds *mlmodel.Dataset, p Params, fresh []int) (*Model, error) {
	m := &Model{intercept: prev.intercept, feats: make([]*feature, len(prev.feats))}
	for j, f := range prev.feats {
		m.feats[j] = &feature{name: f.name, edges: f.edges, score: append([]float64(nil), f.score...)}
	}
	for _, j := range fresh {
		m.feats[j] = nil
	}
	return m.oracleBoostFrom(ds, p)
}

// oracleBoostFrom is boostFrom before it binned each distinct value once,
// verbatim but for its checks and pair terms: every column gathered, a fresh
// one's edges from quantileEdges, every row binned by binary search, and
// oracleBoost.
func (m *Model) oracleBoostFrom(ds *mlmodel.Dataset, p Params) (*Model, error) {
	p = p.normalized()
	n := ds.Len()
	d := ds.NumFeatures()

	pred := make([]float64, n)
	for i := range ds.Y {
		pred[i] = m.intercept
	}
	bins := make([]uint16, n*d)
	col := make([]float64, n)
	unary := make([]oracleTerm, d)
	for j := 0; j < d; j++ {
		for i, row := range ds.X {
			col[i] = row[j]
		}
		f := m.feats[j]
		if f == nil {
			f = &feature{name: ds.FeatureName(j), edges: quantileEdges(col, p.MaxBins)}
			f.score = make([]float64, f.numBins())
			m.feats[j] = f
		}
		f.count = make([]int, f.numBins())
		idx := bins[j*n : (j+1)*n : (j+1)*n]
		for i, v := range col {
			b := f.bin(v)
			idx[i] = uint16(b)
			f.count[b]++
			pred[i] += f.score[b]
		}
		unary[j] = oracleTerm{idx: idx, count: f.count, score: f.score}
	}

	oracleBoost(ds.Y, pred, unary, p.Rounds, p.LearningRate)

	m.center()
	return m, nil
}

type oracleTerm struct {
	idx   []uint16
	count []int
	score []float64
}

// oracleBoost is boost before its cells were fixed at 65,536: its tables
// sized to the widest term.
func oracleBoost(y, pred []float64, terms []oracleTerm, rounds int, lr float64) {
	if len(terms) == 0 || rounds <= 0 {
		return
	}
	cells := 0
	for _, t := range terms {
		cells = max(cells, len(t.count))
	}
	sum := make([]float64, cells)
	delta := make([]float64, cells)
	for i, c := range terms[0].idx {
		sum[c] += y[i] - pred[i]
	}
	for step, steps := 0, rounds*len(terms); step < steps; step++ {
		cur, next := terms[step%len(terms)], terms[(step+1)%len(terms)]
		for c, cnt := range cur.count {
			delta[c] = 0
			if cnt != 0 {
				delta[c] = lr * sum[c] / float64(cnt)
				cur.score[c] += delta[c]
			}
		}
		clear(sum[:len(next.count)])
		curIdx, nextIdx := cur.idx[:len(pred)], next.idx[:len(pred)]
		for i, yi := range y[:len(pred)] {
			v := pred[i] + delta[curIdx[i]]
			pred[i] = v
			sum[nextIdx[i]] += yi - v
		}
	}
}
