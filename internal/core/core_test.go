package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestPackingAnalyzerAccuracy(t *testing.T) {
	a, err := TrainPackingAnalyzer(workload.DefaultThresholds)
	if err != nil {
		t.Fatal(err)
	}
	// §4.6: "DT is sufficient to provide equivalent accuracy (94.1 %)".
	if acc := a.Accuracy(); acc < 0.88 {
		t.Fatalf("packing analyzer accuracy %v, want ≥0.88", acc)
	}
}

func TestPackingAnalyzerInterpretation(t *testing.T) {
	a, _ := TrainPackingAnalyzer(workload.DefaultThresholds)
	out := a.Render()
	for _, want := range []string{"GPU Utilization", "Tiny", "Jumbo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, out)
		}
	}
	imp := a.FeatureImportances()
	// Figure 6: U_G (GPU utilization) dominates.
	for i := 1; i < len(imp); i++ {
		if imp[i] > imp[0] {
			t.Fatalf("feature %q (%.3f) outweighs GPU utilization (%.3f)",
				a.FeatureNames()[i], imp[i], imp[0])
		}
	}
}

func TestPackingAnalyzerUnprofiledIsJumbo(t *testing.T) {
	a, _ := TrainPackingAnalyzer(workload.DefaultThresholds)
	cfg := workload.Config{Model: workload.PPO, BatchSize: 64}
	j := job.New(1, "x", "u", "vc", 1, 0, 100, cfg)
	if s := a.ScoreJob(j); s != workload.Jumbo {
		t.Fatalf("unprofiled job scored %v, must be conservative Jumbo", s)
	}
	j.Profiled = true
	j.Profile = cfg.Profile()
	if s := a.ScoreJob(j); s != workload.Tiny {
		t.Fatalf("profiled PPO scored %v, want Tiny", s)
	}
}

func historyTrace(n int) (*trace.Trace, *trace.Generator) {
	s := trace.Venus()
	s.NumJobs = n
	g := trace.NewGenerator(s)
	return g.Emit(0), g
}

func TestWorkloadEstimatorEndToEnd(t *testing.T) {
	hist, g := historyTrace(4000)
	est, err := TrainWorkloadEstimator(hist.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	next := g.Emit(3000)
	if r2 := est.EvalR2(next.Jobs); r2 < 0.1 {
		t.Fatalf("estimator R² = %v on next month", r2)
	}
	// Explanations sum to the prediction.
	j := next.Jobs[0]
	EnsureProfiles([]*job.Job{j})
	intercept, contribs := est.Explain(j)
	sum := intercept
	for _, c := range contribs {
		sum += c.Score
	}
	got := est.EstimateSec(j)
	if got >= 61 && abs(sum-got) > 1e-6 {
		t.Fatalf("explanation sums to %v, estimate is %v", sum, got)
	}
	if len(est.FeatureNames()) == 0 || len(est.GlobalImportance()) != len(est.FeatureNames()) {
		t.Fatal("importance/name mismatch")
	}
}

func TestEstimatorCacheInvalidation(t *testing.T) {
	hist, g := historyTrace(2000)
	est, _ := TrainWorkloadEstimator(hist.Jobs)
	j := g.Emit(10).Jobs[0]
	v1 := est.EstimateSec(j)
	// Attaching a profile and invalidating may change the estimate; the
	// cache must at minimum be refreshed.
	j.Profiled = true
	j.Profile = j.Config.Profile()
	est.Invalidate(j.ID)
	v2 := est.EstimateSec(j)
	if v2 <= 0 {
		t.Fatalf("estimate after invalidation = %v", v2)
	}
	_ = v1
}

func TestThroughputModelForecast(t *testing.T) {
	hist, _ := historyTrace(8000)
	tp, err := TrainThroughputModel(hist.Jobs, hist.Days)
	if err != nil {
		t.Fatal(err)
	}
	// Night hours forecast below day hours (diurnal shape).
	night := tp.ForecastNextHour(3, 10)
	day := tp.ForecastNextHour(14, 10)
	if day <= night {
		t.Fatalf("diurnal forecast inverted: day=%v night=%v", day, night)
	}
	// Levels bucket sensibly.
	if tp.Level(0) != LoadLow {
		t.Fatal("zero forecast must be LoadLow")
	}
	if tp.Level(tp.Baseline()*2) != LoadHigh {
		t.Fatal("2× baseline must be LoadHigh")
	}
	if tp.Level(tp.Baseline()) != LoadNormal {
		t.Fatal("baseline must be LoadNormal")
	}
	// Observing keeps the window bounded.
	for i := 0; i < 500; i++ {
		tp.Observe(5)
	}
	if f := tp.ForecastNextHour(14, 20); f < 0 {
		t.Fatalf("forecast negative: %v", f)
	}
}

func TestBinderRules(t *testing.T) {
	b := NewBinder()
	cfgLight := workload.Config{Model: workload.PointNet, BatchSize: 64}
	cfgHeavy := workload.Config{Model: workload.BERT, BatchSize: 32}

	mk := func(id, gpus int, cfg workload.Config) *job.Job {
		j := job.New(id, "x", "u", "vc", gpus, 0, 10000, cfg)
		j.Profiled = true
		j.Profile = cfg.Profile()
		return j
	}
	score := func(j *job.Job) workload.SharingScore {
		if j.Config.Model == workload.BERT {
			return workload.Jumbo
		}
		return workload.Tiny
	}

	// Distributed jobs never pack (rule 5).
	jDist := mk(1, 16, cfgLight)
	if p := b.FindPartner(nil, jDist, score, nil); p != nil {
		t.Fatal("distributed job offered a partner")
	}
	// Jumbo job under Apathetic mode (GSS=1) cannot pack at all.
	b.SetMode(PackApathetic)
	jHeavy := mk(2, 1, cfgHeavy)
	if p := b.FindPartner(nil, jHeavy, score, nil); p != nil {
		t.Fatal("Jumbo job packed under GSS=1")
	}
	// Disabled mode packs nothing.
	b.SetMode(PackDisabled)
	if b.SharingEnabled() {
		t.Fatal("disabled binder claims sharing enabled")
	}
	// Mode helpers.
	if ModeFromLoad(LoadLow) != PackApathetic || ModeFromLoad(LoadHigh) != PackDefault {
		t.Fatal("ModeFromLoad mapping wrong")
	}
	if PackDefault.String() != "Default" || PackDisabled.String() != "Disabled" {
		t.Fatal("mode strings wrong")
	}
}

// runLucid executes Lucid end-to-end on a trace with models trained from a
// sibling history month.
func runLucid(t *testing.T, tr *trace.Trace, hist *trace.Trace, cfg Config) *sim.Result {
	t.Helper()
	models, err := TrainModels(hist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(tr, New(models, cfg), sim.Options{
		Tick: 60, SchedulerEvery: 60, ProfilerNodes: 2,
	}).Run()
}

// miniVenus shrinks cluster and workload together so the load profile (and
// therefore queueing contention) matches the full-scale trace.
func miniVenus() trace.GenSpec {
	s := trace.Venus()
	s.Nodes = 20
	s.NumVCs = 4
	s.NumJobs = 4000
	return s
}

func TestLucidEndToEndBeatsFIFO(t *testing.T) {
	g := trace.NewGenerator(miniVenus())
	hist := g.Emit(0)
	eval := g.Emit(0)

	lucid := runLucid(t, eval, hist, DefaultConfig())
	if lucid.Unfinished > 0 {
		t.Fatalf("Lucid left %d jobs unfinished", lucid.Unfinished)
	}

	fifo := sim.New(eval, sched.NewFIFO(), sim.Options{Tick: 60, SchedulerEvery: 60}).Run()
	if lucid.AvgJCTSec >= fifo.AvgJCTSec {
		t.Fatalf("Lucid avgJCT %.0fs not better than FIFO %.0fs", lucid.AvgJCTSec, fifo.AvgJCTSec)
	}
	if lucid.AvgQueueSec >= fifo.AvgQueueSec {
		t.Fatalf("Lucid queue %.0fs not better than FIFO %.0fs", lucid.AvgQueueSec, fifo.AvgQueueSec)
	}
}

func TestLucidDebugFeedback(t *testing.T) {
	// Short jobs get near-immediate feedback via the profiler: their JCT is
	// close to their duration.
	s := trace.Venus()
	s.NumJobs = 2000
	g := trace.NewGenerator(s)
	hist := g.Emit(0)
	eval := g.Emit(0)
	res := runLucid(t, eval, hist, DefaultConfig())

	var shortJCT, shortDur float64
	var n int
	for _, j := range res.Jobs {
		if j.Finish >= 0 && j.Duration <= 60 {
			shortJCT += float64(j.JCT())
			shortDur += float64(j.Duration)
			n++
		}
	}
	if n == 0 {
		t.Skip("no sub-minute jobs in the sample")
	}
	// Average feedback delay for debug jobs under 10 minutes.
	if (shortJCT-shortDur)/float64(n) > 600 {
		t.Fatalf("debug jobs wait %.0fs on average", (shortJCT-shortDur)/float64(n))
	}
}

func TestLucidAblationOrdering(t *testing.T) {
	// Full Lucid must not be worse than the no-sharing ablation on queueing
	// (Figure 11a's direction), modulo small-scale noise tolerance.
	g := trace.NewGenerator(miniVenus())
	hist := g.Emit(0)
	eval := g.Emit(0)

	full := runLucid(t, eval, hist, DefaultConfig())

	noShare := DefaultConfig()
	noShare.DisableSharing = true
	ns := runLucid(t, eval, hist, noShare)

	if full.AvgQueueSec > ns.AvgQueueSec*1.25 {
		t.Fatalf("sharing hurt queueing badly: full=%.0fs no-share=%.0fs",
			full.AvgQueueSec, ns.AvgQueueSec)
	}

	noEst := DefaultConfig()
	noEst.DisableEstimator = true
	ne := runLucid(t, eval, hist, noEst)
	if full.AvgJCTSec > ne.AvgJCTSec*1.3 {
		t.Fatalf("estimator ablation outperformed full Lucid by >30%%: full=%.0f vs %.0f",
			full.AvgJCTSec, ne.AvgJCTSec)
	}
}

func TestTuneProfilerRanksConfigs(t *testing.T) {
	s := trace.Venus()
	s.NumJobs = 800
	g := trace.NewGenerator(s)
	hist := g.Emit(0)
	recent := g.Emit(600)
	cfg := DefaultConfig()
	models, err := TrainModels(hist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands := TuneProfiler(recent, models, cfg,
		[]int64{100, 600}, []int{8}, sim.Options{Tick: 120, SchedulerEvery: 120, ProfilerNodes: 2})
	if len(cands) != 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	// Sorted best-first.
	if cands[0].AvgQueueSec > cands[1].AvgQueueSec {
		t.Fatal("candidates not sorted by queue delay")
	}
	if !strings.Contains(RenderTuning(cands), "Tprof") {
		t.Fatal("tuning report malformed")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestEstimatorUpdateIsAtomic: an Update whose fit fails must leave the
// estimator exactly as it was. Before the fix Update installed the new
// featurizer first, so after a failed fit the old model was fed the new
// featurizer's encodings.
func TestEstimatorUpdateIsAtomic(t *testing.T) {
	hist, g := historyTrace(1500)
	est, err := TrainWorkloadEstimator(hist.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	probe := g.Emit(200).Jobs
	EnsureProfiles(probe)
	estimates := func() []float64 {
		out := make([]float64, len(probe))
		for i, j := range probe {
			est.Invalidate(j.ID)
			out[i] = est.EstimateSec(j)
		}
		return out
	}
	before := estimates()

	// A different history (other templates, users and means) whose fit
	// fails: one job reports a NaN utilization, which gam.Fit rejects.
	bad := g.Emit(1500).Jobs
	EnsureProfiles(bad)
	bad[7].Profile.GPUUtil = math.NaN()
	if err := est.Update(bad); err == nil {
		t.Fatal("Update accepted a NaN profile feature")
	}
	for i, v := range estimates() {
		if v != before[i] {
			t.Fatalf("failed Update moved job %d's estimate %v → %v", probe[i].ID, before[i], v)
		}
	}

	// And a good Update still takes effect.
	bad[7].Profile.GPUUtil = 50
	if err := est.Update(bad); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, v := range estimates() {
		moved = moved || v != before[i]
	}
	if !moved {
		t.Fatal("successful Update changed no estimate")
	}
}

// TestEstimatorModelBitsPinned pins the fitted Workload Estimate Model on a
// small seeded history: the FNV-1a hash of its Save bytes, computed at commit
// 234a1f7 (before the gam.Fit and textdist kernels were replaced). A change
// that is meant to move model bits re-pins it in the same commit as the
// golden digests.
func TestEstimatorModelBitsPinned(t *testing.T) {
	hist, _ := historyTrace(1500)
	est, err := TrainWorkloadEstimator(hist.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if err := est.model.Save(h); err != nil {
		t.Fatal(err)
	}
	if got, want := h.Sum64(), uint64(0x988a2a12c4e4dcdf); got != want {
		t.Fatalf("estimator model hash %#x, pinned %#x", got, want)
	}
}

// oracleOrder is the queue ordering orchestrate had before the keys were
// hoisted out of the comparator — sort.SliceStable re-deriving priority() on
// every comparison — kept verbatim as the reference for orderQueue.
func oracleOrder(l *Lucid, pending []*job.Job, now int64) []*job.Job {
	var queued []*job.Job
	for _, j := range pending {
		if j.State == job.Queued {
			queued = append(queued, j)
		}
	}
	sort.SliceStable(queued, func(a, b int) bool {
		pa, pb := l.priority(queued[a], now), l.priority(queued[b], now)
		if pa != pb {
			return pa < pb
		}
		if queued[a].Submit != queued[b].Submit {
			return queued[a].Submit < queued[b].Submit
		}
		return queued[a].ID < queued[b].ID
	})
	return queued
}

// orderQueue is how Lucid ordered its queue before it kept one: every round,
// the Queued jobs among pending keyed by priority at now and sorted by
// Algorithm 2's comparator. It is the oracle the kept queue is held to
// (TestQueueMatchesPerRoundSort).
func (l *Lucid) orderQueue(pending []*job.Job, now int64) []keyedJob {
	var q []keyedJob
	for _, j := range pending {
		if j.State == job.Queued {
			q = append(q, keyedJob{job: j, prio: l.priority(j, now)})
		}
	}
	slices.SortStableFunc(q, compareKeyed)
	return q
}

// TestOrderQueueMatchesOracle: on queues built to collide — a handful of
// distinct estimates and GPU counts, so GPUs×estimate ties across different
// jobs (2×60 = 1×120), a handful of submit times, IDs in no particular order,
// Pending jobs mixed in — orderQueue returns exactly the oracle's sequence,
// with fairness aging off and on and with the estimator ablated, on a queue
// and on a prefix of it.
//
// The kept queue orders by key, aging's static form, and is held to the same
// oracle: exactly wherever aging is off, and with aging on — at fractional
// rates over fractional estimates too — up to near-ties, where rounding may
// split two jobs the other way. Those are counted and reported.
func TestOrderQueueMatchesOracle(t *testing.T) {
	cfgs := map[string]Config{
		"default":          {},
		"aging":            {FairnessAgingSec: 0.5},
		"no-estimator":     {DisableEstimator: true},
		"aging-fractional": {FairnessAgingSec: 1.0 / 3},
	}
	for name, cfg := range cfgs {
		ests := []float64{60, 120, 240, 3600}
		if name == "aging-fractional" {
			ests = []float64{60.1, 120.2, 240.4, 3600.3, 100.0 / 3}
		}
		gpus := []int{1, 2, 4, 8}
		split := 0
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			est := &WorkloadEstimator{cache: map[int]float64{}}
			l := &Lucid{cfg: cfg, models: &Models{Estimator: est}}
			n := 1 + rng.Intn(400)
			pending := make([]*job.Job, n)
			for i, id := range rng.Perm(n) {
				j := job.New(id, "j", "u", "vc", gpus[rng.Intn(len(gpus))],
					int64(rng.Intn(6))*600, 1000, workload.Config{})
				j.State = job.Queued
				if rng.Intn(5) == 0 {
					j.State = job.Pending
				}
				est.cache[id] = ests[rng.Intn(len(ests))]
				pending[i] = j
			}
			const now = 7200
			for _, q := range [][]*job.Job{pending, pending[:n/3]} {
				want := oracleOrder(l, q, now)
				got := l.orderQueue(q, now)
				if len(got) != len(want) {
					t.Fatalf("%s seed %d: %d jobs ordered, oracle has %d", name, seed, len(got), len(want))
				}
				for i := range want {
					if got[i].job != want[i] {
						t.Fatalf("%s seed %d: position %d is job %d, oracle has job %d",
							name, seed, i, got[i].job.ID, want[i].ID)
					}
					if len(got) > 1 && got[i].prio != l.priority(want[i], now) {
						t.Fatalf("%s seed %d: job %d carries key %v, priority is %v",
							name, seed, want[i].ID, got[i].prio, l.priority(want[i], now))
					}
				}
				split += checkKeyOrder(t, l, want, now)
			}
		}
		if split > 0 {
			t.Logf("%s: %d queue positions hold the other job of a near-tie under the static key", name, split)
		}
	}
}

// checkKeyOrder holds the kept queue's order — the jobs sorted by key — to
// the oracle's sequence want. Without aging the two must be equal; with it
// they may differ only between jobs whose priorities at now are equal up to
// rounding, and the number of positions where they do is returned.
func checkKeyOrder(t *testing.T, l *Lucid, want []*job.Job, now int64) int {
	t.Helper()
	got := make([]keyedJob, len(want))
	for i, j := range want {
		got[i] = keyedJob{job: j, prio: l.key(j).Prio}
	}
	slices.SortFunc(got, compareKeyed)
	split := 0
	for i := range want {
		if got[i].job == want[i] {
			continue
		}
		a, b := l.priority(got[i].job, now), l.priority(want[i], now)
		if l.cfg.FairnessAgingSec == 0 || math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
			t.Fatalf("key order: position %d is job %d (priority %v), oracle has job %d (priority %v)",
				i, got[i].job.ID, a, want[i].ID, b)
		}
		split++
	}
	return split
}
