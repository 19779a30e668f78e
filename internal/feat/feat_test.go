package feat

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/job"
	"repro/internal/ml/gam"
	"repro/internal/ml/mlmodel"
	"repro/internal/trace"
	"repro/internal/workload"
)

func venusSample(n int) *trace.Trace {
	s := trace.Venus()
	s.NumJobs = n
	return trace.NewGenerator(s).Emit(0)
}

func TestHourlySubmissions(t *testing.T) {
	tr := venusSample(2000)
	series := HourlySubmissions(tr.Jobs, tr.Days)
	if len(series) != tr.Days*24 {
		t.Fatalf("series length %d", len(series))
	}
	total := 0.0
	for _, v := range series {
		total += v
	}
	if int(total) != len(tr.Jobs) {
		t.Fatalf("series sums to %v, want %d", total, len(tr.Jobs))
	}
}

func TestThroughputFeaturesShape(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i)
	}
	row := ThroughputFeatures(series, 50)
	if len(row) != len(ThroughputFeatureNames()) {
		t.Fatalf("feature row %d names %d", len(row), len(ThroughputFeatureNames()))
	}
	// shift_1h is series[49].
	if row[3] != 49 {
		t.Fatalf("shift_1h = %v", row[3])
	}
	// shift_1d is series[26].
	if row[5] != 26 {
		t.Fatalf("shift_1d = %v", row[5])
	}
	if row[0] != 50%24 {
		t.Fatalf("hour = %v", row[0])
	}
}

func TestThroughputDatasetPredictsDiurnal(t *testing.T) {
	// GA²M on the engineered features must forecast a synthetic diurnal
	// series well — the substance of Figure 13a.
	// With n jobs/hour the Poisson sampling noise bounds achievable R²; use
	// enough jobs that the diurnal signal dominates.
	tr := venusSample(20000)
	series := HourlySubmissions(tr.Jobs, tr.Days)
	ds := ThroughputDataset(series)
	// Train on the first three quarters of the hours, test on the rest.
	cut := len(ds.X) * 3 / 4
	train := &mlmodel.Dataset{X: ds.X[:cut], Y: ds.Y[:cut], Names: ds.Names}
	test := &mlmodel.Dataset{X: ds.X[cut:], Y: ds.Y[cut:], Names: ds.Names}
	m, err := gam.Fit(train, gam.Params{Rounds: 150})
	if err != nil {
		t.Fatal(err)
	}
	pred := mlmodel.PredictAll(m, test.X)
	r2 := mlmodel.R2(pred, test.Y)
	if r2 < 0.55 {
		t.Fatalf("throughput forecast R2 = %v, diurnal structure not learned", r2)
	}
}

func TestTemplateBase(t *testing.T) {
	cases := map[string]string{
		"vc00-user01-ResNet-18-t12-v7": "vc00-user01-ResNet-18-t12",
		"plain":                        "plain",
		"a-vx":                         "a-vx", // non-numeric suffix stays
		"x-v123":                       "x",
	}
	for in, want := range cases {
		if got := TemplateBase(in); got != want {
			t.Errorf("TemplateBase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDurationFeaturizerFallbacks(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	history := []*job.Job{
		job.New(1, "tmplA-v1", "alice", "vc", 1, 0, 1000, cfg),
		job.New(2, "tmplA-v2", "alice", "vc", 1, 100, 2000, cfg),
		job.New(3, "tmplB-v1", "bob", "vc", 4, 200, 8000, cfg),
	}
	f := NewDurationFeaturizer(history, false)
	names := f.Names()

	idx := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		t.Fatalf("feature %q missing", name)
		return -1
	}

	// Known template → template mean.
	row := f.Features(job.New(4, "tmplA-v3", "alice", "vc", 1, 300, 0, cfg))
	if got := row[idx("tmpl_mean")]; got != 1500 {
		t.Fatalf("tmpl_mean = %v, want 1500", got)
	}
	// New template, known user → user mean.
	row = f.Features(job.New(5, "tmplC-v1", "bob", "vc", 4, 300, 0, cfg))
	if got := row[idx("tmpl_mean")]; got != 8000 {
		t.Fatalf("new-template fallback = %v, want bob's mean 8000", got)
	}
	// New user → same-GPU-demand mean (§3.4).
	row = f.Features(job.New(6, "tmplD-v1", "carol", "vc", 4, 300, 0, cfg))
	if got := row[idx("tmpl_mean")]; got != 8000 {
		t.Fatalf("new-user fallback = %v, want gpu-4 mean 8000", got)
	}
	// New user, unseen GPU demand → global mean.
	row = f.Features(job.New(7, "tmplE-v1", "dave", "vc", 2, 300, 0, cfg))
	want := (1000.0 + 2000 + 8000) / 3
	if got := row[idx("tmpl_mean")]; math.Abs(got-want) > 1e-9 {
		t.Fatalf("global fallback = %v, want %v", got, want)
	}
}

func TestProfileFeaturesToggle(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	history := []*job.Job{job.New(1, "a-v1", "u", "vc", 1, 0, 100, cfg)}
	plain := NewDurationFeaturizer(history, false)
	prof := NewDurationFeaturizer(history, true)
	if len(prof.Names()) != len(plain.Names())+4 {
		t.Fatalf("profile featurizer adds %d features", len(prof.Names())-len(plain.Names()))
	}
	j := job.New(2, "a-v2", "u", "vc", 1, 0, 100, cfg)
	j.Profiled = true
	j.Profile = cfg.Profile()
	row := prof.Features(j)
	if row[len(row)-4] != j.Profile.GPUUtil {
		t.Fatal("profile util feature wrong")
	}
}

func TestNameBucketsClusterRecurrences(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	var history []*job.Job
	id := 1
	for _, base := range []string{"train-resnet", "train-resnet2", "bert-finetune", "bert-finetun2"} {
		for v := 1; v <= 5; v++ {
			history = append(history, job.New(id, base+"-v1", "u", "vc", 1, 0, 100, cfg))
			id++
		}
	}
	f := NewDurationFeaturizer(history, false)
	b1 := f.bucketOf("train-resnet")
	b2 := f.bucketOf("train-resnet2")
	b3 := f.bucketOf("bert-finetune")
	if b1 != b2 {
		t.Fatalf("similar names in different buckets: %d vs %d", b1, b2)
	}
	if b1 == b3 {
		t.Fatal("dissimilar names share a bucket")
	}
	// Unseen name lands with its nearest exemplar.
	if f.bucketOf("train-resnet3") != b1 {
		t.Fatal("unseen similar name not bucketed with exemplar")
	}
}

func TestDurationModelLearnsFromHistory(t *testing.T) {
	// End-to-end: GA²M on featurized history must outperform the global-mean
	// baseline on the next month (R² > 0).
	s := trace.Venus()
	s.NumJobs = 4000
	g := trace.NewGenerator(s)
	hist := g.Emit(0)
	next := g.Emit(0)
	for _, j := range hist.Jobs {
		j.Profile = j.Config.Profile()
		j.Profiled = true
	}
	for _, j := range next.Jobs {
		j.Profile = j.Config.Profile()
		j.Profiled = true
	}
	f := NewDurationFeaturizer(hist.Jobs, true)
	m, err := gam.Fit(f.Dataset(hist.Jobs), gam.Params{Rounds: 120})
	if err != nil {
		t.Fatal(err)
	}
	test := f.Dataset(next.Jobs)
	pred := mlmodel.PredictAll(m, test.X)
	r2 := mlmodel.R2(pred, test.Y)
	if r2 < 0.1 {
		t.Fatalf("duration model R2 = %v on the next month", r2)
	}
}

// TestDatasetRowsMatchFeatures: Dataset carves its rows from one backing
// array; each must equal Features(job), stay independent of its neighbours,
// and the table must cost a constant number of allocations, not one per job.
func TestDatasetRowsMatchFeatures(t *testing.T) {
	tr := venusSample(600)
	for _, j := range tr.Jobs {
		j.Profile, j.Profiled = j.Config.Profile(), true
	}
	for _, profile := range []bool{false, true} {
		f := NewDurationFeaturizer(tr.Jobs, profile)
		ds := f.Dataset(tr.Jobs)
		for i, j := range tr.Jobs {
			if !reflect.DeepEqual(ds.X[i], f.Features(j)) {
				t.Fatalf("profile=%v row %d = %v, Features = %v", profile, i, ds.X[i], f.Features(j))
			}
			if ds.Y[i] != float64(j.Duration) {
				t.Fatalf("row %d target %v, want %d", i, ds.Y[i], j.Duration)
			}
		}
		next := append([]float64(nil), ds.X[1]...)
		_ = append(ds.X[0], -1) // must reallocate, not run into row 1
		if !reflect.DeepEqual(ds.X[1], next) {
			t.Fatal("appending to one row overwrote the next")
		}
		perTable := func(jobs []*job.Job) float64 {
			return testing.AllocsPerRun(5, func() { f.Dataset(jobs) })
		}
		if few, many := perTable(tr.Jobs[:50]), perTable(tr.Jobs); many != few {
			t.Fatalf("profile=%v: Dataset allocates %v times for 50 jobs, %v for 600", profile, few, many)
		}
	}
}
