package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func TestModelBundleRoundTrip(t *testing.T) {
	s := trace.Venus()
	s.NumJobs = 2000
	g := trace.NewGenerator(s)
	hist := g.Emit(0)
	cfg := DefaultConfig()
	models, err := TrainModels(hist, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := models.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Analyzer behaves identically.
	for _, ex := range probeProfiles() {
		if loaded.Analyzer.Score(ex) != models.Analyzer.Score(ex) {
			t.Fatal("analyzer drifted after round trip")
		}
	}
	if loaded.Analyzer.Accuracy() != models.Analyzer.Accuracy() {
		t.Fatal("analyzer accuracy drifted")
	}

	// Estimator predicts identically on fresh jobs.
	probe := g.Emit(50).Jobs
	EnsureProfiles(probe)
	for _, j := range probe[:20] {
		if loaded.Estimator.EstimateSec(j) != models.Estimator.EstimateSec(j) {
			t.Fatal("estimator drifted after round trip")
		}
	}

	// Throughput forecasts identically.
	if loaded.Throughput.ForecastNextHour(14, 3) != models.Throughput.ForecastNextHour(14, 3) {
		t.Fatal("throughput model drifted after round trip")
	}
	if loaded.Throughput.baseline != models.Throughput.baseline {
		t.Fatal("baseline drifted")
	}

	// A loaded bundle must be able to drive the scheduler.
	eval := g.Emit(800)
	lucid := New(loaded, cfg)
	if lucid == nil {
		t.Fatal("scheduler construction failed")
	}
	_ = eval
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := LoadModels(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadModels(strings.NewReader(`{"analyzer_tree":{}}`)); err == nil {
		t.Fatal("empty tree accepted")
	}
}

// TestLoadModelsRejectsCorruption exhaustively feeds LoadModels the failure
// shapes a real deployment produces — empty files, torn writes, sections
// nulled by a partial serializer, concatenated bundles — and requires a
// descriptive error for each. A zero-valued model loading "successfully"
// would silently mis-score every job.
func TestLoadModelsRejectsCorruption(t *testing.T) {
	s := trace.Venus()
	s.NumJobs = 800
	models, err := TrainModels(trace.NewGenerator(s).Emit(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := models.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := []struct {
		name, input, wantSub string
	}{
		{"empty file", "", "empty or truncated"},
		{"whitespace only", "  \n", "empty or truncated"},
		{"truncated mid-document", good[:len(good)/2], "truncated"},
		{"empty object", "{}", `missing "analyzer_tree"`},
		{"null analyzer", `{"analyzer_tree":null,"estimator_gam":{},"featurizer":{},"throughput_gam":{}}`,
			`missing "analyzer_tree"`},
		{"missing featurizer", `{"analyzer_tree":{},"estimator_gam":{},"throughput_gam":{}}`,
			`missing "featurizer"`},
		{"trailing garbage", strings.TrimRight(good, "\n") + "junk", "trailing data"},
		{"concatenated bundles", good + good, "trailing data"},
		{"wrong top-level type", `[1,2,3]`, "load bundle"},
	}
	for _, tc := range cases {
		m, err := LoadModels(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: accepted (models=%v)", tc.name, m != nil)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}

	// The pristine bundle still loads after all that (Save's trailing
	// newline must not trip the trailing-data check).
	if _, err := LoadModels(strings.NewReader(good)); err != nil {
		t.Errorf("pristine bundle rejected: %v", err)
	}
}

// probeProfiles samples a few profiles across the catalog for behavioural
// equality checks.
func probeProfiles() []workload.Profile {
	var out []workload.Profile
	for i, c := range workload.AllConfigs() {
		if i%5 == 0 {
			out = append(out, c.Profile())
		}
	}
	return out
}
