package lab

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/feat"
	"repro/internal/job"
	"repro/internal/ml/dtree"
	"repro/internal/ml/forest"
	"repro/internal/ml/gam"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/mlmodel"
	"repro/internal/ml/nn"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table7Result holds the model-comparison scores.
type Table7Result struct {
	// ThroughputMAE by model name (lower is better).
	ThroughputMAE map[string]float64
	// DurationR2 by model name (higher is better).
	DurationR2 map[string]float64
	// PackingAccuracy of the decision tree (§4.6 reports 94.1 %).
	PackingAccuracy float64
}

// table7Models is the baseline lineup of Table 7.
var table7Models = []string{"RF", "LightGBM", "XGBoost", "DNN", "Lucid"}

// Table7 trains RF / LightGBM / XGBoost / DNN / Lucid(GAM) on the same
// Venus features and scores them: MAE for throughput forecasting, R² for
// duration estimation.
func Table7(scale float64) (*Table7Result, string, error) {
	spec := trace.Venus()
	n := int(float64(spec.NumJobs) * scale)
	if n < 2000 {
		n = 2000
	}
	g := trace.NewGenerator(spec)
	hist := g.Emit(n)
	next := g.Emit(n)
	core.EnsureProfiles(hist.Jobs)
	core.EnsureProfiles(next.Jobs)

	out := &Table7Result{ThroughputMAE: map[string]float64{}, DurationR2: map[string]float64{}}

	// --- Throughput forecasting (hourly submissions, chronological split).
	trainSeries := feat.HourlySubmissions(hist.Jobs, hist.Days)
	testSeries := feat.HourlySubmissions(next.Jobs, next.Days)
	trainDS := feat.ThroughputDataset(trainSeries)
	testDS := feat.ThroughputDataset(testSeries)
	// GAM hyperparameters are task-tuned like every baseline's defaults
	// are: coarse bins for the short noisy hourly series, finer bins for the
	// richer duration features. The paper's GA²M pair terms lowered the
	// duration R² at this table's scale on 4 of 5 trace seeds, so the model
	// has none (EXPERIMENTS.md, "Ruled out").
	tpParams := gam.Params{MaxBins: 10, Rounds: 300, LearningRate: 0.04}
	for _, name := range table7Models {
		m, err := fitNamed(name, trainDS, tpParams)
		if err != nil {
			return nil, "", err
		}
		out.ThroughputMAE[name] = mlmodel.MAE(mlmodel.PredictAll(m, testDS.X), testDS.Y)
	}

	// --- Duration estimation (profile-inclusive features, next-month test).
	fz := feat.NewDurationFeaturizer(hist.Jobs, true)
	durTrain := fz.Dataset(hist.Jobs)
	durTest := fz.Dataset(next.Jobs)
	durParams := gam.Params{MaxBins: 64, Rounds: 300, LearningRate: 0.05}
	for _, name := range table7Models {
		m, err := fitNamed(name, durTrain, durParams)
		if err != nil {
			return nil, "", err
		}
		out.DurationR2[name] = mlmodel.R2(mlmodel.PredictAll(m, durTest.X), durTest.Y)
	}

	// --- Packing Analyze accuracy.
	analyzer, err := core.TrainPackingAnalyzer(workload.DefaultThresholds)
	if err != nil {
		return nil, "", err
	}
	out.PackingAccuracy = analyzer.Accuracy()

	var tb [][]string
	for _, name := range table7Models {
		tb = append(tb, []string{name,
			fmt.Sprintf("%.3f", out.ThroughputMAE[name]),
			fmt.Sprintf("%.3f", out.DurationR2[name])})
	}
	report := "Table 7 — model comparison on Venus (Throughput MAE ↓, Duration R² ↑)\n" +
		table([]string{"model", "Throughput MAE", "Duration R²"}, tb) +
		fmt.Sprintf("Packing Analyze decision tree accuracy: %.1f%% (paper: 94.1%%)\n",
			out.PackingAccuracy*100)
	return out, report, nil
}

// fitNamed trains one of the Table 7 baselines on a dataset; gamParams
// configure the Lucid (GAM) entry.
func fitNamed(name string, ds *mlmodel.Dataset, gamParams gam.Params) (mlmodel.Regressor, error) {
	switch name {
	case "RF":
		return forest.FitRegressor(ds, forest.Params{NumTrees: 60, MaxDepth: 12, Seed: 11})
	case "LightGBM":
		return gbdt.Fit(ds, gbdt.LightGBMStyle())
	case "XGBoost":
		return gbdt.Fit(ds, gbdt.XGBoostStyle())
	case "DNN":
		return nn.Fit(ds, nn.Params{Epochs: 30, Seed: 12})
	case "Lucid":
		return gam.Fit(ds, gamParams)
	case "DT":
		return dtree.FitRegressor(ds, dtree.Params{MaxDepth: 8, MinSamplesLeaf: 5})
	default:
		return nil, fmt.Errorf("lab: unknown model %q", name)
	}
}

// Fig7 renders the interpretability artifacts: the throughput model's
// global importances and hour shape (Saturn), and a local explanation of
// one Venus duration prediction.
func Fig7(scale float64) (string, error) {
	var sb strings.Builder

	// (a, b) — Saturn throughput model.
	sSpec := trace.Saturn()
	n := int(float64(sSpec.NumJobs) * scale)
	if n < 4000 {
		n = 4000
	}
	sHist := trace.NewGenerator(sSpec).Emit(n)
	tp, err := core.TrainThroughputModel(sHist.Jobs, sHist.Days)
	if err != nil {
		return "", err
	}
	sb.WriteString("Figure 7a — Throughput Predict Model global importance (Saturn)\n")
	imp := tp.GlobalImportance()
	names := tp.FeatureNames()
	for i, nm := range names {
		fmt.Fprintf(&sb, "  %-16s %8.3f\n", nm, imp[i])
	}
	sb.WriteString("\nFigure 7b — learned shape function of `hour`\n")
	for _, pt := range tp.HourShape() {
		fmt.Fprintf(&sb, "  hour ≤ %5.1f → score %+8.3f (n=%d)\n", pt.UpperEdge, pt.Score, pt.Count)
	}

	// (c) — one local explanation from Venus.
	vSpec := trace.Venus()
	vn := int(float64(vSpec.NumJobs) * scale)
	if vn < 2000 {
		vn = 2000
	}
	vg := trace.NewGenerator(vSpec)
	vHist := vg.Emit(vn)
	est, err := core.TrainWorkloadEstimator(vHist.Jobs)
	if err != nil {
		return "", err
	}
	probe := vg.Emit(50).Jobs[0]
	core.EnsureProfiles([]*job.Job{probe})
	intercept, contribs := est.Explain(probe)
	fmt.Fprintf(&sb, "\nFigure 7c — local explanation for %s (predicted %.0f s, true %d s)\n",
		probe.Name, est.EstimateSec(probe), probe.Duration)
	fmt.Fprintf(&sb, "  intercept %+10.1f\n", intercept)
	for _, c := range contribs {
		fmt.Fprintf(&sb, "  %-14s %+10.1f (value %.1f)\n", c.Name, c.Score, c.Value)
	}
	return sb.String(), nil
}

// Fig13 visualizes prediction quality: throughput forecast vs reality on
// Saturn, and duration estimates vs truth on Venus.
func Fig13(scale float64) (string, error) {
	var sb strings.Builder

	// (a) Saturn daily submission prediction.
	sSpec := trace.Saturn()
	n := int(float64(sSpec.NumJobs) * scale)
	if n < 4000 {
		n = 4000
	}
	sg := trace.NewGenerator(sSpec)
	sHist := sg.Emit(n)
	sNext := sg.Emit(n)
	tp, err := core.TrainThroughputModel(sHist.Jobs, sHist.Days)
	if err != nil {
		return "", err
	}
	series := feat.HourlySubmissions(sNext.Jobs, sNext.Days)
	ds := feat.ThroughputDataset(series)
	pred := mlmodel.PredictAll(modelOf(tp), ds.X)
	sb.WriteString("Figure 13a — Saturn daily submissions, real vs predicted\n")
	// Aggregate hourly → daily for the visualization.
	days := sNext.Days
	warm := feat.ThroughputWarmup()
	realDay := make([]float64, days)
	predDay := make([]float64, days)
	for i := range ds.Y {
		d := (i + warm) / 24
		if d < days {
			realDay[d] += ds.Y[i]
			predDay[d] += pred[i]
		}
	}
	for d := 1; d < days; d++ {
		fmt.Fprintf(&sb, "  day %2d: real %6.0f  predicted %6.0f\n", d+1, realDay[d], predDay[d])
	}
	fmt.Fprintf(&sb, "  hourly MAE: %.2f\n", mlmodel.MAE(pred, ds.Y))

	// (b) Venus duration estimation: bucket jobs by true duration.
	vSpec := trace.Venus()
	vn := int(float64(vSpec.NumJobs) * scale)
	if vn < 2000 {
		vn = 2000
	}
	vg := trace.NewGenerator(vSpec)
	vHist := vg.Emit(vn)
	vNext := vg.Emit(vn)
	est, err := core.TrainWorkloadEstimator(vHist.Jobs)
	if err != nil {
		return "", err
	}
	core.EnsureProfiles(vNext.Jobs)
	sb.WriteString("\nFigure 13b — Venus duration estimation by true-duration bucket\n")
	type agg struct {
		truth, pred float64
		n           int
	}
	buckets := []struct {
		name   string
		lo, hi int64
	}{
		{"debug (≤15 min)", 0, 900},
		{"short (≤1 h)", 901, 3600},
		{"medium (≤6 h)", 3601, 6 * 3600},
		{"long (≤1 d)", 6*3600 + 1, 86400},
		{"huge (>1 d)", 86401, 1 << 62},
	}
	aggs := make([]agg, len(buckets))
	for _, j := range vNext.Jobs {
		for bi, b := range buckets {
			if j.Duration >= b.lo && j.Duration <= b.hi {
				aggs[bi].truth += float64(j.Duration)
				aggs[bi].pred += est.EstimateSec(j)
				aggs[bi].n++
				break
			}
		}
	}
	for bi, b := range buckets {
		if aggs[bi].n == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-16s n=%5d  true mean %8.0f s  predicted mean %8.0f s\n",
			b.name, aggs[bi].n, aggs[bi].truth/float64(aggs[bi].n), aggs[bi].pred/float64(aggs[bi].n))
	}
	fmt.Fprintf(&sb, "  overall R²: %.3f (paper: 0.413)\n", est.EvalR2(vNext.Jobs))
	return sb.String(), nil
}

// modelOf adapts a ThroughputModel for batch scoring: it exposes the inner
// GAM through the Regressor interface via a tiny wrapper.
func modelOf(t *core.ThroughputModel) mlmodel.Regressor { return throughputRegressor{t} }

type throughputRegressor struct{ t *core.ThroughputModel }

func (r throughputRegressor) Predict(x []float64) float64 {
	return r.t.PredictRow(x)
}
