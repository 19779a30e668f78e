package feat

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/ml/affprop"
	"repro/internal/ml/mlmodel"
	"repro/internal/ml/textdist"
	"repro/internal/trace"
	"repro/internal/workload"
)

// oracleFit is the featurizer fit as first written: seven maps filled row by
// row and the full top-k similarity matrix computed afresh. Its Dataset of
// the same history is what Refit must return.
func oracleFit(history []*job.Job, includeProfile bool) *DurationFeaturizer {
	f := &DurationFeaturizer{
		IncludeProfile:   includeProfile,
		MaxNameExemplars: 150,
		baseBucket:       map[string]int{},
		userMean:         map[string]float64{},
		tmplMean:         map[string]float64{},
		tmplCount:        map[string]float64{},
		gpuMean:          map[int]float64{},
	}
	userSum, userN := map[string]float64{}, map[string]float64{}
	tmplSum := map[string]float64{}
	gpuSum, gpuN := map[int]float64{}, map[int]float64{}
	baseFreq := map[string]int{}
	var total, n float64
	for _, j := range history {
		d := float64(j.Duration)
		base := TemplateBase(j.Name)
		baseFreq[base]++
		userSum[j.User] += d
		userN[j.User]++
		tmplSum[base] += d
		f.tmplCount[base]++
		gpuSum[j.GPUs] += d
		gpuN[j.GPUs]++
		total += d
		n++
	}
	if n > 0 {
		f.globalMean = total / n
	}
	for u, s := range userSum {
		f.userMean[u] = s / userN[u]
	}
	for b, s := range tmplSum {
		f.tmplMean[b] = s / f.tmplCount[b]
	}
	for g, s := range gpuSum {
		f.gpuMean[g] = s / gpuN[g]
	}
	type bf struct {
		base string
		freq int
	}
	var bases []bf
	for b, c := range baseFreq {
		bases = append(bases, bf{b, c})
	}
	sort.Slice(bases, func(i, k int) bool {
		if bases[i].freq != bases[k].freq {
			return bases[i].freq > bases[k].freq
		}
		return bases[i].base < bases[k].base
	})
	k := min(len(bases), f.MaxNameExemplars)
	if k == 0 {
		return f
	}
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = bases[i].base
	}
	sim := make([][]float64, k)
	minSim := 1.0
	for i := range sim {
		sim[i] = make([]float64, k)
		for j := range sim[i] {
			sim[i][j] = textdist.Similarity(names[i], names[j])
			if i != j && sim[i][j] < minSim {
				minSim = sim[i][j]
			}
		}
	}
	assign := affprop.Cluster(sim, minSim)
	exIdx := map[int]int{}
	for _, e := range assign {
		if _, ok := exIdx[e]; !ok {
			exIdx[e] = len(f.exemplars)
			f.exemplars = append(f.exemplars, names[e])
		}
	}
	for i, e := range assign {
		f.baseBucket[names[i]] = exIdx[e]
	}
	return f
}

// saved is f as Save writes it.
func saved(t *testing.T, f *DurationFeaturizer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAgainstOracle requires f and ds, a Refit of history, to equal the
// oracle's fit and Dataset: every cell bit for bit, and the Save bytes.
func checkAgainstOracle(t *testing.T, step string, history []*job.Job, f *DurationFeaturizer, ds *mlmodel.Dataset) {
	t.Helper()
	of := oracleFit(history, true)
	ods := of.Dataset(history)
	if len(ds.X) != len(ods.X) {
		t.Fatalf("%s: %d rows, oracle %d", step, len(ds.X), len(ods.X))
	}
	for i := range ods.X {
		if len(ds.X[i]) != len(ods.X[i]) || ds.Y[i] != ods.Y[i] {
			t.Fatalf("%s: row %d shape or target differs", step, i)
		}
		for c, v := range ods.X[i] {
			if math.Float64bits(ds.X[i][c]) != math.Float64bits(v) {
				t.Fatalf("%s: row %d %s = %v, oracle %v", step, i, ds.Names[c], ds.X[i][c], v)
			}
		}
	}
	if !bytes.Equal(saved(t, f), saved(t, of)) {
		t.Fatalf("%s: Save differs from the oracle's", step)
	}
}

// TestRefitMatchesOracle walks the Update Engine's weekly refits (the
// history month plus the evaluation month's jobs submitted before day 0, 7,
// 14, 21 and 28) on Saturn×0.2 and Venus×0.2. Before each refit a sibling
// refits the same parent on a later history, so a lineage written by one
// child would show in the other; a third chain resumes from a saved and
// loaded featurizer, which carries no lineage. Every step must equal the
// oracle.
func TestRefitMatchesOracle(t *testing.T) {
	for _, spec := range []trace.GenSpec{trace.Saturn(), trace.Venus()} {
		spec.NumJobs /= 5
		g := trace.NewGenerator(spec)
		hist, eval := g.Emit(0).Jobs, g.Emit(0).Jobs
		for _, j := range append(hist[:len(hist):len(hist)], eval...) {
			j.Profile, j.Profiled = j.Config.Profile(), true
		}
		upTo := func(day int) []*job.Job {
			rows := append([]*job.Job(nil), hist...)
			for _, j := range eval {
				if j.Submit < int64(day)*86400 {
					rows = append(rows, j)
				}
			}
			return rows
		}
		days := []int{0, 7, 14, 21, 28}
		var prev, loaded *DurationFeaturizer
		for _, day := range days {
			rows := upTo(day)
			if prev != nil {
				more := upTo(day + 3)
				sib, sds := Refit(prev, more, true)
				checkAgainstOracle(t, fmt.Sprintf("%s day %d sibling", spec.Name, day), more, sib, sds)
			}
			f, ds := Refit(prev, rows, true)
			checkAgainstOracle(t, fmt.Sprintf("%s day %d", spec.Name, day), rows, f, ds)
			if loaded == nil {
				var err error
				if loaded, err = LoadDurationFeaturizer(bytes.NewReader(saved(t, f))); err != nil {
					t.Fatal(err)
				}
			} else {
				lf, lds := Refit(loaded, rows, true)
				checkAgainstOracle(t, fmt.Sprintf("%s day %d from a loaded bundle", spec.Name, day), rows, lf, lds)
				loaded = lf
			}
			prev = f
		}
	}
}

// TestRefitCachesStayBounded: along a lineage whose every refit sees a new
// family of job names, the caches restart instead of growing without bound,
// and every refit still equals the oracle.
func TestRefitCachesStayBounded(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	models := []string{"resnet", "bert", "gpt", "vgg", "yolo"}
	var f *DurationFeaturizer
	for step := 0; step < 8; step++ {
		var history []*job.Job
		for i := 0; i < 300; i++ {
			name := fmt.Sprintf("fam%d-%s-t%d-v%d", step, models[i%len(models)], i%40, i%7)
			history = append(history, job.New(i, name, fmt.Sprintf("u%d", i%9), "vc", 1+i%4, int64(i)*600, int64(300+i*37%5000), cfg))
		}
		var ds *mlmodel.Dataset
		f, ds = Refit(f, history, false)
		oracle := oracleFit(history, false)
		if !bytes.Equal(saved(t, f), saved(t, oracle)) {
			t.Fatalf("step %d: Save differs from the oracle's", step)
		}
		for i, row := range oracle.Dataset(history).X {
			for c, v := range row {
				if math.Float64bits(ds.X[i][c]) != math.Float64bits(v) {
					t.Fatalf("step %d: row %d column %d = %v, oracle %v", step, i, c, ds.X[i][c], v)
				}
			}
		}
		if top, ex := min(40, f.MaxNameExemplars), len(f.exemplars); len(f.lin.ranked) > (staleFactor+1)*top || len(f.lin.exemplars) > (staleFactor+1)*ex {
			t.Fatalf("step %d: %d ranked bases for a top %d, %d exemplars seen for %d", step, len(f.lin.ranked), top, len(f.lin.exemplars), ex)
		}
	}
}
