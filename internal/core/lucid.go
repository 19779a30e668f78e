package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config carries Lucid's operator-tunable knobs and the ablation switches
// the Figure 11 experiments flip.
type Config struct {
	// TprofSec is the profiling time limit (default 200, Table 6).
	TprofSec int64
	// Nprof is the profiling job-scale limit in GPUs (default 8).
	Nprof int
	// Thresholds are the (Medium, Tiny) classifier cut points (default
	// 0.85/0.95, §4.5).
	Thresholds workload.Thresholds
	// UpdateIntervalSec is the Update Engine refit period (default weekly;
	// 0 disables updates — the §4.5(3) "static model" ablation).
	UpdateIntervalSec int64

	// FairnessAgingSec implements the paper's §6 fairness extension: each
	// second a job waits buys it this many seconds of priority credit, so
	// long-waiting jobs eventually overtake shorter newcomers. 0 disables
	// aging (the paper's baseline behaviour). At 0.5 it trims the p99.9
	// queueing delay without making per-user slowdowns fairer; at 2.0 it
	// can make them much less fair (EXPERIMENTS.md).
	FairnessAgingSec float64

	// Ablations (Figure 11a/11b and §4.5):
	DisableSharing    bool // "w/o Sharing": never pack
	DisableBinder     bool // "w/o Binder": naive bin-packing, no Indolent rules
	DisableEstimator  bool // "w/o Estimator": runtime-agnostic ordering
	DisableSpaceAware bool // profiler FIFO instead of least-GPUs-first
	DisableTimeAware  bool // static profiler configuration
}

// DefaultConfig returns the paper's defaults: Normalized's, with the
// Update Engine refitting weekly.
func DefaultConfig() Config {
	return Config{UpdateIntervalSec: 7 * 86400}.Normalized()
}

// Models bundles Lucid's three interpretable models plus the history they
// were trained on (the Update Engine refits on history ∪ freshly finished
// jobs).
type Models struct {
	Analyzer   *PackingAnalyzer
	Estimator  *WorkloadEstimator
	Throughput *ThroughputModel
	History    []*job.Job
}

// TrainModels fits all three models from a history trace (past months of
// the same cluster) — the setup step the paper performs on April–August
// data.
func TrainModels(history *trace.Trace, cfg Config) (*Models, error) {
	analyzer, err := TrainPackingAnalyzer(cfg.Thresholds)
	if err != nil {
		return nil, err
	}
	est, err := TrainWorkloadEstimator(history.Jobs)
	if err != nil {
		return nil, err
	}
	tp, err := TrainThroughputModel(history.Jobs, history.Days)
	if err != nil {
		return nil, err
	}
	return &Models{Analyzer: analyzer, Estimator: est, Throughput: tp, History: history.Jobs}, nil
}

// Clone returns a Models whose run-mutable state (the estimator's cache and
// update lineage, the throughput model's live observation window) is
// private to the clone. The fitted model weights, the analyzer (pure at
// inference time) and the history slice (read-only) are shared. Every
// independent scheduler run should get its own clone — otherwise one run's
// online updates leak into the next and repeated runs diverge.
func (m *Models) Clone() *Models {
	return &Models{
		Analyzer:   m.Analyzer,
		Estimator:  m.Estimator.Clone(),
		Throughput: m.Throughput.Clone(),
		History:    m.History,
	}
}

// Lucid is the scheduler (Figure 4): Profiler → Binder → Orchestrator,
// maintained by the Update Engine and tuned by the System Tuner.
type Lucid struct {
	cfg Config
	// models is nil until resolveModels takes it from src, at the first Tick,
	// SnapshotState or RestoreState.
	models   *Models
	src      func() *Models
	profiler *Profiler
	binder   *Binder
	order    orderer

	scores     map[int]workload.SharingScore
	hourCount  float64
	curHour    int64
	lastUpdate int64
	// arrived is len(env.AllJobs()) when arrivals were last counted, -1 until
	// a fresh instance's first round.
	arrived int

	// queue is Algorithm 2's order, kept rather than rebuilt: the Queued jobs
	// by Key ascending. A job enters when it becomes Queued
	// (onProfiled) or comes back from a fault requeue (Env.Requeued), and
	// leaves when orchestrate places it; a refit re-keys it. primed is unset
	// until a round has built it from the waiting set, which is how a fresh,
	// restored or forked instance starts.
	queue  []keyedJob
	primed bool
	// unprofiled is the profiler's input: the visible Pending jobs by
	// (Submit, ID), kept the same way — arrivals and requeued unprofiled jobs
	// join at their place, the jobs the profiler took or admitted leave after
	// its step.
	unprofiled []*job.Job
	// binderAt is the pack mode the queue's failure stamps were taken under
	// (keyedJob.failedAt); orchestrate drops them when it changes.
	binderAt PackMode
	// roundHook, when set (tests), sees the queue at the top of orchestrate.
	roundHook func(env *sim.Env, queue []keyedJob)
	// retryAll, when set (tests), tries every queued job every round: the
	// walk before failure stamps, the oracle they are held to. traceSkips,
	// when set (tests), skips in traced rounds too, so a trace can show that
	// skipping moves no engine transition. skipped counts the attempts the
	// stamps saved.
	retryAll   bool
	traceSkips bool
	skipped    int

	// modelsDirty records whether the Update Engine has refit the estimator
	// since construction. A snapshot embeds the full model bundle only then;
	// otherwise the constructor-provided models are reproducible and the
	// snapshot stays small.
	modelsDirty bool
}

// New assembles Lucid from trained models and a config. Zero-valued knobs
// are filled with their paper defaults (Normalized); an out-of-range knob —
// a negative budget, thresholds outside (0,1] — is a programming error in
// the caller and panics with Validate's named-field message. Callers
// constructing configs from external input (flags, search vectors) should
// run cfg.Normalized().Validate() themselves first.
func New(models *Models, cfg Config) *Lucid {
	return NewDeferred(func() *Models { return models }, cfg)
}

// NewDeferred is New over a model source that Lucid calls once, at its first
// Tick, SnapshotState or RestoreState, so a Lucid that is built but never run
// never asks for its models. NextWake reads no model.
func NewDeferred(src func() *Models, cfg Config) *Lucid {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	l := &Lucid{
		cfg:      cfg,
		src:      src,
		profiler: newProfiler(cfg),
		binder:   newBinder(cfg),
		scores:   map[int]workload.SharingScore{},
		arrived:  -1,
	}
	l.order = newOrderer(l, cfg)
	return l
}

// resolveModels takes the models from the source on first use.
func (l *Lucid) resolveModels() {
	if l.models == nil {
		l.models, l.src = l.src(), nil
	}
}

// Name implements sim.Scheduler.
func (l *Lucid) Name() string { return "Lucid" }

// ModelsRefit reports whether the Update Engine has retrained the estimator
// since construction (tests; snapshots embed the model bundle only then).
func (l *Lucid) ModelsRefit() bool { return l.modelsDirty }

// NextWake implements sim.EventAware: the earliest time-driven decision in
// the Figure 4 workflow. Lucid's time dependencies are all explicit clocks:
//
//   - hourly maintenance (throughput observation, tuner retune, pack-mode
//     selection) fires when the hour counter advances;
//   - the profiler evicts each profiling job when its run reaches the
//     current Tprof;
//   - the Update Engine refits UpdateIntervalSec after its last attempt.
//
// Everything else reacts to queue/cluster changes, which wake the engine on
// their own. The binder's time-aware packing rule (partner remaining time
// below minRemainSec) only *removes* pack options as runtime accrues, and
// the fairness-aging credit grows alike for every waiting job, so it never
// reorders the queue (see orderer) — neither can turn an idle round into an
// acting one, so neither needs a wake-up.
func (l *Lucid) NextWake(env *sim.Env) int64 {
	now := env.Now()
	next := (l.curHour + 1) * 3600
	consider := func(at int64) {
		if at > now && at < next {
			next = at
		}
	}
	if l.cfg.UpdateIntervalSec > 0 {
		consider(l.lastUpdate + l.cfg.UpdateIntervalSec)
	}
	tprof := l.profiler.CurrentTprof()
	for _, j := range env.Profiling() {
		consider(now + tprof - env.ProfilingElapsed(j))
	}
	if next <= now { // hour boundary already due: poll at the next round
		return now
	}
	return next
}

// Tick implements the full Figure 4 workflow. Every job the profiler turns
// Queued enters the orchestrator's queue through onProfiled, the same round.
func (l *Lucid) Tick(env *sim.Env) {
	l.resolveModels()
	l.observe(env)
	l.hourlyMaintenance(env)
	l.profiler.Step(env, l.unprofiled, l.onProfiled)
	l.unprofiled = slices.DeleteFunc(l.unprofiled, func(j *job.Job) bool { return j.State != job.Pending })
	l.orchestrate(env)
	l.updateEngine(env)
}

// observe catches up with what the engine did since the last round: it
// counts the submissions for the throughput model and hands each job that
// joined the waiting set — an arrival, or a fault requeue out of its backoff
// (Env.Requeued) — to the list its State names. A fresh instance builds both
// lists from the waiting set instead, and counts the visible waiting jobs as
// its first round's arrivals.
func (l *Lucid) observe(env *sim.Env) {
	all := env.AllJobs()
	if l.primed {
		for _, j := range all[l.arrived:] {
			l.addUnprofiled(j)
		}
		for _, j := range env.Requeued() {
			if j.State == job.Queued {
				l.enqueue(j)
			} else {
				l.addUnprofiled(j)
			}
		}
	} else {
		l.primed = true
		waiting := 0
		for _, q := range env.Queues() {
			waiting += len(q.Jobs)
			for _, j := range q.Jobs {
				switch j.State {
				case job.Pending:
					l.unprofiled = append(l.unprofiled, j)
				case job.Queued:
					l.queue = append(l.queue, keyedJob{job: j, prio: l.order.key(j).Prio})
				}
			}
		}
		slices.SortFunc(l.unprofiled, bySubmit)
		slices.SortFunc(l.queue, compareKeyed)
		if l.arrived < 0 {
			l.arrived = len(all) - waiting
		}
	}
	l.hourCount += float64(len(all) - l.arrived)
	l.arrived = len(all)
}

// hourlyMaintenance rolls the submission counter into the throughput model
// and re-derives the Dynamic Strategy and Time-aware Scaling settings.
func (l *Lucid) hourlyMaintenance(env *sim.Env) {
	hour := env.Now() / 3600
	if hour == l.curHour {
		return
	}
	for h := l.curHour; h < hour; h++ {
		l.models.Throughput.Observe(l.hourCount)
		l.hourCount = 0
	}
	l.curHour = hour

	forecast := l.models.Throughput.ForecastNextHour(int(hour%24), int(hour/24))
	level := l.models.Throughput.Level(forecast)
	l.profiler.Retune(level)
	l.binder.SetMode(ModeFromLoad(level))
}

// onProfiled classifies a freshly profiled job, refreshes its estimate (the
// profile adds features the estimator can use) and queues it: every profiler
// path that turns a job Queued calls it.
func (l *Lucid) onProfiled(j *job.Job) {
	l.scores[j.ID] = l.models.Analyzer.ScoreJob(j)
	l.models.Estimator.Invalidate(j.ID)
	l.enqueue(j)
}

// Key is Algorithm 2's order, the one both systems keep: Prio ascending, then
// Submit, then ID, which makes it total. Lucid's queue, and lucidd's
// /schedule index, K-way merge and ActOrder scores all read it.
type Key struct {
	Prio   float64
	Submit int64
	ID     int
}

// NewKey keys a job: Algorithm 2 line 4, GPU demand × estimated duration,
// plus aging·submit, the static form of the §6 aging credit (orderer says
// why). lucidd has neither and passes 0 for both: its ties fall to the ID.
func NewKey(gpus int, estSec, aging float64, submit int64, id int) Key {
	p := float64(gpus) * estSec
	if aging != 0 {
		p += aging * float64(submit)
	}
	return Key{Prio: p, Submit: submit, ID: id}
}

// Compare orders k before o (-1), after it (+1) or as the same key (0).
func (k Key) Compare(o Key) int {
	if c := cmp.Compare(k.Prio, o.Prio); c != 0 {
		return c
	}
	if c := cmp.Compare(k.Submit, o.Submit); c != 0 {
		return c
	}
	return cmp.Compare(k.ID, o.ID)
}

// orderer is Algorithm 2's queue order and everything the "w/o Estimator"
// ablation (Figure 11a) changes with it. NewDeferred chooses one, by estimate
// or by submit order, and the round reads its fields, never the switch. Its
// hooks read l.models when called: a refit or RestoreState may swap the
// estimator after construction.
type orderer struct {
	// score is a job's priority at time now, as decision traces report it:
	// line 4 (NewKey without aging), less the §6 aging credit a·(now −
	// Submit), which bounds starvation of long/large jobs. key is what the
	// queue orders by, score with the clock taken out: line 4 − a·(now −
	// Submit) is line 4 + a·Submit − a·now, and the last term is the same for
	// every job in a round, so line 4 + a·Submit orders the queue as score
	// does and stays fixed while the job waits. At a = 0 (the paper's
	// setting) and in submit order its Prio is score, bit for bit; with aging
	// on, rounding can split a near-tie the other way.
	score  func(j *job.Job, now int64) float64
	key    func(j *job.Job) Key
	reason string // the order events' reason
	// remaining is the Binder's time-awareness hook, estimated duration less
	// observed runtime; nil skips its ending-soon rule.
	remaining func(j *job.Job) float64
}

// newOrderer returns l's orderer for cfg. Under DisableEstimator the order
// degrades to submission order, with no time-awareness.
func newOrderer(l *Lucid, cfg Config) orderer {
	var o orderer
	if cfg.DisableEstimator {
		o.key = func(j *job.Job) Key { return Key{Prio: float64(j.Submit), Submit: j.Submit, ID: j.ID} }
		o.score = func(j *job.Job, _ int64) float64 { return float64(j.Submit) }
		o.reason = "submit-order"
		return o
	}
	aging := cfg.FairnessAgingSec
	est := func(j *job.Job) float64 { return l.models.Estimator.EstimateSec(j) }
	o.key = func(j *job.Job) Key { return NewKey(j.GPUs, est(j), aging, j.Submit, j.ID) }
	o.score = func(j *job.Job, now int64) float64 {
		p := NewKey(j.GPUs, est(j), 0, 0, j.ID).Prio
		if aging > 0 {
			p -= aging * float64(now-j.Submit)
		}
		return p
	}
	o.reason = "min-gpu-demand-x-estimate"
	o.remaining = func(j *job.Job) float64 { return max(est(j)-j.RunTime, 0) }
	if aging > 0 {
		o.reason += "-aged"
	}
	return o
}

// score returns the cached Sharing Score (Jumbo when unknown).
func (l *Lucid) score(j *job.Job) workload.SharingScore {
	if s, ok := l.scores[j.ID]; ok {
		return s
	}
	s := l.models.Analyzer.ScoreJob(j)
	l.scores[j.ID] = s
	return s
}

// keyedJob is a queued job with its Key's Prio, computed when it enters the
// queue rather than once per comparison or per round (the rest of the Key is
// the job's own), and its failure stamp: failedAt is the main cluster's
// generation of the job's VC (Cluster.VCGen of index vc) when the job last
// failed to place, 0 if it has not failed since it entered the queue or since
// its stamp was dropped.
type keyedJob struct {
	job      *job.Job
	prio     float64
	failedAt uint64
	vc       int
}

// compareKeyed is Algorithm 2's order: Key.Compare.
func compareKeyed(a, b keyedJob) int {
	return Key{a.prio, a.job.Submit, a.job.ID}.Compare(Key{b.prio, b.job.Submit, b.job.ID})
}

// bySubmit orders jobs by submit time, then ID: the profiler list's order.
func bySubmit(a, b *job.Job) int {
	if c := cmp.Compare(a.Submit, b.Submit); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// enqueue puts a Queued job in its place (a no-op for a member).
func (l *Lucid) enqueue(j *job.Job) {
	kj := keyedJob{job: j, prio: l.order.key(j).Prio}
	if i, ok := slices.BinarySearchFunc(l.queue, kj, compareKeyed); !ok {
		l.queue = slices.Insert(l.queue, i, kj)
	}
}

// addUnprofiled puts a Pending job in its place in the profiler's list (a
// no-op for a member). Every generated trace submits in this order, so an
// arrival is an append.
func (l *Lucid) addUnprofiled(j *job.Job) {
	if n := len(l.unprofiled); n == 0 || bySubmit(l.unprofiled[n-1], j) < 0 {
		l.unprofiled = append(l.unprofiled, j)
		return
	}
	if i, ok := slices.BinarySearchFunc(l.unprofiled, j, bySubmit); !ok {
		l.unprofiled = slices.Insert(l.unprofiled, i, j)
	}
}

// rekey re-derives every key and restores the order, after a refit has
// changed the estimates behind them. It drops the failure stamps too: the
// estimates decide a job's partners' remaining time.
func (l *Lucid) rekey() {
	for i, q := range l.queue {
		l.queue[i] = keyedJob{job: q.job, prio: l.order.key(q.job).Prio}
	}
	slices.SortFunc(l.queue, compareKeyed)
}

// orchestrate is Algorithm 2: walk the queue in priority order and place
// each job with sharing (if enabled) or exclusively. Placed jobs leave the
// queue; the rest keep their places for the next round.
//
// A job that failed to place is not tried again while nothing its attempt
// read has changed, since the attempt would fail the same way. The attempt
// read the pack mode, the estimates, and the job's VC: its free GPUs and, for
// packing, its running jobs of the same demand, their partners and their
// remaining time. Any change to the VC but the passing of time moves its
// generation (Cluster.VCGen); time only shortens remaining time, which can
// only turn a viable partner into one that ends too soon (NextWake relies on
// the same). So a job whose Binder found no partner and whose exclusive
// placement failed is stamped with its VC's generation, and skipped while
// the generation stays. A pack mode change (the hourly Dynamic Strategy) and
// a refit (rekey) drop every stamp. A job whose partner was found but
// refused the pack is not stamped: as time passes the Binder may pick
// another. Skipping an attempt skips nothing else — the score and estimate
// caches it would fill were filled by the attempt that failed — and a traced
// round skips nothing, because every failure is an event of the trace.
func (l *Lucid) orchestrate(env *sim.Env) {
	if l.roundHook != nil {
		l.roundHook(env, l.queue)
	}
	if l.binder.Mode() != l.binderAt {
		l.binderAt = l.binder.Mode()
		for i := range l.queue {
			l.queue[i].failedAt = 0
		}
	}
	queued := l.queue
	if len(queued) == 0 {
		return
	}
	now := env.Now()
	rec := env.Trace()
	if rec.Enabled() {
		l.traceOrder(env, queued, now)
	}
	main := env.Cluster()
	skip := (!rec.Enabled() || l.traceSkips) && !l.retryAll

	sharing := l.binder.SharingEnabled()
	kept := queued[:0]
	for _, q := range queued {
		if skip && q.failedAt != 0 && q.failedAt == main.VCGen(q.vc) {
			l.skipped++
			kept = append(kept, q)
			continue
		}
		j := q.job
		var p *job.Job
		if sharing {
			if rec.Enabled() {
				p = l.findPartnerTraced(env, j, now)
			} else {
				p = l.binder.FindPartnerExplain(env, j, l.score, l.order.remaining, nil)
			}
			if p != nil && env.StartShared(j, p) {
				continue
			}
		}
		if env.StartExclusive(j) {
			continue
		}
		q.failedAt = 0
		if p == nil {
			q.vc = main.VCIndex(j.VC)
			q.failedAt = main.VCGen(q.vc)
		}
		kept = append(kept, q)
	}
	clear(queued[len(kept):])
	l.queue = kept
}

// traceOrder records the Resource Orchestrator's queue-ordering decision:
// the job granted the head of the queue, its priority score, and the top-K
// jobs it was preferred over — Figure 12's "why does job A go before job
// B?" answer. Scores are the orderer's, aging credit at now included.
func (l *Lucid) traceOrder(env *sim.Env, queued []keyedJob, now int64) {
	head := queued[0].job
	k := env.Trace().TopK()
	var alts []dtrace.Alternative
	for _, q := range queued[1:] {
		if len(alts) >= k {
			break
		}
		alts = append(alts, dtrace.Alternative{
			Job: q.job.ID, Score: l.order.score(q.job, now), Reason: "behind-in-queue"})
	}
	env.Trace().Record(dtrace.Event{
		Tick: now, Job: head.ID, Action: dtrace.ActOrder, Reason: l.order.reason,
		VC: head.VC, GPUs: head.GPUs, Score: l.order.score(head, now),
		Alternatives: alts,
	})
}

// findPartnerTraced runs the Binder with an explanation collector and
// records the outcome: a pack annotation (consumed by the engine's pack
// event) carrying the counterfactual partner list and a regret score, or a
// pack-reject event naming the Indolent rule that fired.
func (l *Lucid) findPartnerTraced(env *sim.Env, j *job.Job, now int64) *job.Job {
	ex := &PackExplain{}
	p := l.binder.FindPartnerExplain(env, j, l.score, l.order.remaining, ex)
	if p == nil {
		// Only an explicit rule firing is a decision worth a record;
		// "no-viable-partner" with zero candidates just means an empty VC.
		if ex.Reason != "no-viable-partner" || len(ex.Candidates) > 0 {
			env.Trace().Record(dtrace.Event{
				Tick: now, Job: j.ID, Action: dtrace.ActPackReject, Reason: ex.Reason,
				VC: j.VC, GPUs: j.GPUs, Alternatives: ex.Candidates,
			})
		}
		return nil
	}
	// Regret over every examined pairing with a computable score, including
	// rule-rejected ones with a better (lower) combined utilization: a
	// positive value quantifies what the Indolent safety rules cost on this
	// decision. Scoreless candidates (unprofiled partners) are excluded —
	// their 0 is "unknown", not "idle".
	var scored []dtrace.Alternative
	for _, a := range ex.Candidates {
		if a.Score > 0 {
			scored = append(scored, a)
		}
	}
	regret := dtrace.Regret(ex.ChosenScore, scored, true)
	env.Annotate(j.ID, "indolent-pack", ex.ChosenScore, regret, ex.Candidates)
	return p
}

// updateEngine periodically refits the Workload Estimate Model on the
// accumulated finished jobs (§3.6.2).
func (l *Lucid) updateEngine(env *sim.Env) {
	if l.cfg.UpdateIntervalSec <= 0 {
		return
	}
	if env.Now()-l.lastUpdate < l.cfg.UpdateIntervalSec {
		return
	}
	l.lastUpdate = env.Now()
	var finished []*job.Job
	for _, j := range env.AllJobs() {
		if j.State == job.Finished {
			finished = append(finished, j)
		}
	}
	if len(finished) < 200 {
		return // not enough fresh signal to be worth a refit
	}
	merged := append(append([]*job.Job(nil), l.models.History...), finished...)
	met := newUpdateMetrics(env.Metrics())
	warm, full := l.models.Estimator.Fits()
	// Refit errors leave the previous model in place — the Update Engine
	// must never take the scheduler down.
	if err := l.models.Estimator.update(merged, met); err == nil {
		l.modelsDirty = true
		l.rekey()
	}
	nowWarm, nowFull := l.models.Estimator.Fits()
	met.warm.Add(float64(nowWarm - warm))
	met.full.Add(float64(nowFull - full))
}

// updateMetrics are the Update Engine's instruments on a run's registry.
// The zero value (metrics off) times and counts nothing: a nil registry's
// timers and nil counters are no-ops.
type updateMetrics struct {
	reg            *metrics.Registry
	featurize, fit *metrics.Histogram // lucid_update_engine_seconds{stage}
	warm, full     *metrics.Counter   // lucid_refits_total{kind}
}

// newUpdateMetrics resolves the instruments on reg (nil → the zero value).
func newUpdateMetrics(reg *metrics.Registry) updateMetrics {
	if reg == nil {
		return updateMetrics{}
	}
	stages := reg.HistogramVec("lucid_update_engine_seconds",
		"Wall-clock seconds per Update Engine refit stage.", metrics.ExpBuckets(1e-3, 2, 14), "stage")
	refits := reg.CounterVec("lucid_refits_total",
		"Update Engine refits by kind, as WorkloadEstimator.Fits counts them.", "kind")
	return updateMetrics{
		reg:       reg,
		featurize: stages.With("featurize"),
		fit:       stages.With("fit"),
		warm:      refits.With("warm"),
		full:      refits.With("full"),
	}
}

// UpdateEngineSummary describes the Update Engine instruments a Lucid run
// recorded on reg: refits by kind and seconds per stage.
func UpdateEngineSummary(reg *metrics.Registry) string {
	m := newUpdateMetrics(reg)
	return fmt.Sprintf("update engine: %.0f warm + %.0f full refits; featurize %.3f s, fit %.3f s",
		m.warm.Value(), m.full.Value(), m.featurize.Sum(), m.fit.Sum())
}
