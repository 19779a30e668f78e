// Package trace synthesizes production DL-cluster job traces with the
// structure the Lucid paper's evaluation relies on. The real traces (Venus
// and Saturn from SenseTime's Helios, Philly from Microsoft) are proprietary
// releases we substitute with statistical generators calibrated to every
// published property the schedulers and models exploit:
//
//   - Table 2 scale: cluster size, job count, mean duration per trace.
//   - §2.2 workload skew: >95 % of jobs within a node (≤8 GPUs), ~90 %
//     recurrences of per-user templates, and a debugging majority of
//     short-lived jobs.
//   - Heavy-tailed durations (lognormal long tail out to days) — the raw
//     material of HOL blocking, which is what separates FIFO from everyone.
//   - Diurnal and weekly submission rhythms — the signal the Throughput
//     Predict Model forecasts (Figure 7b's hour shape).
//   - Skewed VC sizes and loads — why Figure 9's per-VC queueing differs.
//   - Hierarchical workload typing (§4.1): long/large jobs are big models
//     (BERT, ResNet-50), small/short jobs are light models, with the
//     Venus-L/M/H utilization variants of Figure 12a.
//
// A Generator owns a fixed population of users and job templates; emitting
// several months from one generator yields the recurrent structure the
// Workload Estimate Model learns from (train on past months, test on the
// next — the paper's April–August/September split).
package trace

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// UtilLevel selects the Figure 12a workload-utilization mix.
type UtilLevel int

const (
	// UtilLow mimics the Alibaba PAI distribution (mostly light models).
	UtilLow UtilLevel = iota
	// UtilMedium is the paper's default evaluation mix (Venus-M).
	UtilMedium
	// UtilHigh skews toward heavy models (Venus-H).
	UtilHigh
)

// String names the level as the paper does.
func (u UtilLevel) String() string {
	switch u {
	case UtilLow:
		return "L"
	case UtilMedium:
		return "M"
	case UtilHigh:
		return "H"
	default:
		return "?"
	}
}

// The job mix every generated trace shares.
const (
	// debugFrac is the fraction of short debugging/test jobs (§2.2 reports
	// the majority of jobs are short-term).
	debugFrac = 0.55
	// recurFrac is the probability a submission reuses an existing template
	// (~0.9 in production).
	recurFrac = 0.9
	// gpusPerNode is every generated cluster's node size.
	gpusPerNode = 8
)

// GenSpec configures a trace generator.
type GenSpec struct {
	Name        string
	Nodes       int // total nodes
	NumVCs      int
	NumJobs     int     // jobs per emitted month
	AvgDuration float64 // target mean duration, seconds
	Days        int     // emission window length
	Util        UtilLevel
	Seed        uint64

	// TargetLoad caps the cluster-wide offered load (Σ duration·GPUs over
	// capacity·window). Production traces are feasible by construction —
	// jobs that ran did fit — so an emitted month whose synthetic load
	// exceeds the cap has all durations scaled down to it. Default 0.45.
	TargetLoad float64
}

func (s GenSpec) normalized() GenSpec {
	if s.NumVCs <= 0 {
		s.NumVCs = 1
	}
	if s.Days <= 0 {
		s.Days = 30
	}
	if s.TargetLoad <= 0 {
		s.TargetLoad = 0.45
	}
	return s
}

// Venus returns the SenseTime Venus spec (Table 2: 1,080 GPUs, 23,859 jobs,
// 5,419 s mean duration, 15 VCs).
func Venus() GenSpec {
	return GenSpec{Name: "Venus", Nodes: 135, NumVCs: 15, NumJobs: 23859,
		AvgDuration: 5419, Days: 30, Util: UtilMedium, Seed: 0x7e105}
}

// Saturn returns the SenseTime Saturn spec (Table 2: 2,080 GPUs, 101,254
// jobs, 13,006 s mean duration, 20 VCs).
func Saturn() GenSpec {
	return GenSpec{Name: "Saturn", Nodes: 260, NumVCs: 20, NumJobs: 101254,
		AvgDuration: 13006, Days: 30, Util: UtilMedium, Seed: 0x5a7193}
}

// Philly returns the Microsoft Philly spec (Table 2: 864 GPUs as 108 8-GPU
// nodes, 12,389 jobs, 25,533 s mean duration, a single VC per §4.1).
func Philly() GenSpec {
	// Philly's single VC needs a hotter offered-load cap than the
	// multi-VC clusters to exhibit its published (worst-of-the-three)
	// queueing behaviour: with one big pool there is no cross-VC skew.
	return GenSpec{Name: "Philly", Nodes: 108, NumVCs: 1, NumJobs: 12389,
		AvgDuration: 25533, Days: 30, Util: UtilMedium, Seed: 0x9d111e,
		TargetLoad: 0.95}
}

// Helios returns a datacenter-scale spec calibrated against the published
// Helios characterization (Hu et al., SC '21: the SenseTime Helios
// datacenter — four clusters, 6,416 GPUs, ~3.3M GPU jobs over six months,
// i.e. ~550k jobs/month datacenter-wide, short-job-dominated with mean
// durations in the low thousands of seconds). This spec rounds the
// datacenter up to one 10,000-GPU federation replaying a million-job month —
// the scalability target the event engine is benchmarked against
// (BenchmarkHeliosMonth in internal/lab). It is deliberately not part of the
// Table 2 evaluation set.
func Helios() GenSpec {
	return GenSpec{Name: "Helios", Nodes: 1250, NumVCs: 40, NumJobs: 1_000_000,
		AvgDuration: 3600, Days: 30, Util: UtilMedium, Seed: 0x8e1105}
}

// Trace is one emitted workload: a cluster spec plus a submit-ordered job
// list.
type Trace struct {
	Name    string
	Cluster cluster.Spec
	Jobs    []*job.Job
	Days    int
}

// template is one recurring job archetype owned by a user.
type template struct {
	name       string
	cfg        workload.Config
	gpus       int
	longMedian float64 // median duration of its non-debug runs, seconds
	pDebug     float64 // share of its submissions that are short debug runs
	uses       int
}

// user owns templates inside one VC.
type user struct {
	name      string
	vc        string
	templates []*template
}

// Generator owns the user/template population and can emit any number of
// months with consistent recurrence structure.
type Generator struct {
	spec    GenSpec
	cluster cluster.Spec
	vcs     []string
	users   [][]*user // per VC
	rng     *xrand.RNG

	// Sampling tables, built once: GPU demand, job share per VC (skewed),
	// the hour of the window a job is submitted in, and the Zipf rank of a
	// recurring template, whose table every user's template list shares.
	gpuDemand *xrand.ChoiceTable
	vcJob     *xrand.ChoiceTable
	hour      *xrand.ChoiceTable
	zipf      *xrand.ZipfTable

	nextJobID int
	nextTmpl  int
	emitted   int // months emitted, to vary job names across months
}

// NewGenerator builds the population deterministically from the spec seed.
func NewGenerator(spec GenSpec) *Generator {
	spec = spec.normalized()
	g := &Generator{spec: spec, rng: xrand.New(spec.Seed), nextJobID: 1,
		gpuDemand: xrand.NewChoiceTable(gpuDemandW), zipf: xrand.NewZipfTable(1.1)}

	// VC sizes: skewed (production VCs are sized per team). Largest VCs get
	// several times the nodes of the smallest, with every VC getting at
	// least 2 nodes when the cluster allows it.
	weights := make([]float64, spec.NumVCs)
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 0.7)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	nodesLeft := spec.Nodes
	specVCs := make([]cluster.VCSpec, spec.NumVCs)
	for i := range specVCs {
		n := int(float64(spec.Nodes) * weights[i] / total)
		if n < 1 {
			n = 1
		}
		if spec.NumVCs > 1 && n < 2 && spec.Nodes >= 2*spec.NumVCs {
			n = 2
		}
		if n > nodesLeft-(spec.NumVCs-1-i) {
			n = nodesLeft - (spec.NumVCs - 1 - i)
		}
		specVCs[i] = cluster.VCSpec{Name: fmt.Sprintf("vc%02d", i), Nodes: n}
		nodesLeft -= n
	}
	// Distribute any remainder round-robin.
	for i := 0; nodesLeft > 0; i = (i + 1) % spec.NumVCs {
		specVCs[i].Nodes++
		nodesLeft--
	}
	g.cluster = cluster.Spec{GPUsPerNode: gpusPerNode, GPUMemMB: workload.GPUMemMBCap, VCs: specVCs}

	// Job-share weights per VC: *differently* skewed than capacity, so some
	// VCs run hot (Figure 9's spread). Rotate the skew so the busiest VC is
	// not the biggest.
	// Job share ∝ VC capacity × a load-skew multiplier, so per-VC offered
	// load varies around the global mean (hot VCs ~2.5× the mean, cold VCs
	// ~0.5×) without any VC being unboundedly overloaded. The rank scatter
	// decorrelates hotness from size.
	vcJobW := make([]float64, spec.NumVCs)
	for i := range vcJobW {
		rank := (i*7 + 3) % spec.NumVCs
		m := 1 / (1 + 1.2*float64(rank))
		vcJobW[i] = float64(specVCs[i].Nodes) * m
	}
	g.vcJob = xrand.NewChoiceTable(vcJobW)

	// Arrival weight of each hour of the window, day by day.
	hourW := make([]float64, 0, spec.Days*24)
	for d := 0; d < spec.Days; d++ {
		for h := 0; h < 24; h++ {
			hourW = append(hourW, dayWeight(d)*hourWeights[h])
		}
	}
	g.hour = xrand.NewChoiceTable(hourW)

	// Users per VC scale with VC size.
	g.users = make([][]*user, spec.NumVCs)
	for i, vcSpec := range specVCs {
		g.vcs = append(g.vcs, vcSpec.Name)
		nu := 3 + vcSpec.Nodes/2
		if nu > 25 {
			nu = 25
		}
		for u := 0; u < nu; u++ {
			usr := &user{name: fmt.Sprintf("%s-user%02d", vcSpec.Name, u), vc: vcSpec.Name}
			// Seed each user with a couple of starting templates.
			for k := 0; k < 2; k++ {
				usr.templates = append(usr.templates, g.newTemplate(usr))
			}
			g.users[i] = append(g.users[i], usr)
		}
	}
	return g
}

// ClusterSpec returns the generated cluster layout.
func (g *Generator) ClusterSpec() cluster.Spec { return g.cluster }

// gpuDemandDist is the §2.2 small-job skew: >95 % within one 8-GPU node.
var gpuDemands = []int{1, 2, 4, 8, 16, 32}
var gpuDemandW = []float64{0.78, 0.10, 0.05, 0.037, 0.020, 0.013}

// model mixes per utilization level. Heavy models drive Venus-H; light
// models dominate the PAI-like Venus-L.
var heavyModels = []workload.Model{workload.BERT, workload.ResNet50, workload.EfficientNet, workload.VGG11, workload.DCGAN, workload.Transformer}
var lightModels = []workload.Model{workload.ResNet18, workload.MobileNetV2, workload.MobileNetV3, workload.PointNet, workload.PPO, workload.TD3, workload.NeuMF, workload.LSTM}

func (g *Generator) newTemplate(usr *user) *template {
	g.nextTmpl++
	gpus := gpuDemands[g.gpuDemand.Draw(g.rng)]
	// Clamp demand to what the VC can ever host (whole nodes for the
	// distributed part), or the job would starve forever.
	vcNodes := g.vcNodesOf(usr.vc)
	maxG := vcNodes * gpusPerNode
	for gpus > maxG || (gpus > gpusPerNode && (gpus+gpusPerNode-1)/gpusPerNode > vcNodes) {
		gpus = gpuDemands[g.gpuDemand.Draw(g.rng)]
	}

	// Characteristic duration: heavy lognormal tail. Median ≈ 1 h with a
	// wide sigma gives multi-day stragglers; the emit pass rescales the mix
	// to the trace's target mean.
	longMedian := g.rng.LogNormal(math.Log(3600), 1.2)
	if longMedian < 300 {
		longMedian = 300
	}
	// Duration correlates with scale: multi-GPU training runs are the long
	// ones (production GPU-time is dominated by large jobs), which is what
	// generates meaningful cluster load out of a modest mean duration.
	longMedian *= 1 + float64(gpus)*0.35

	// Debug-ness is a property of the *template*, not a coin flip per
	// submission: hyperparameter-search and production templates rarely
	// abort, while test/debug templates almost always do. This is what makes
	// duration predictable from history (§2.3) — and it matches the
	// production observation that debugging jobs are a recognizable
	// population, not random noise.
	pDebug := 0.02 + 0.13*g.rng.Float64()
	if g.rng.Bool(debugFrac) {
		pDebug = 0.80 + 0.15*g.rng.Float64()
	}

	// Hierarchical workload typing (§4.1): large/long templates draw from
	// the heavy models, the rest from the light set, shifted by UtilLevel.
	big := gpus >= 8 || longMedian > 4*3600
	pHeavy := 0.25
	switch g.spec.Util {
	case UtilLow:
		pHeavy = 0.08
	case UtilHigh:
		pHeavy = 0.55
	}
	if big {
		pHeavy = math.Min(1, pHeavy*2.5)
	}
	var m workload.Model
	if g.rng.Bool(pHeavy) {
		m = heavyModels[g.rng.Intn(len(heavyModels))]
	} else {
		m = lightModels[g.rng.Intn(len(lightModels))]
	}
	batches := m.BatchSizes()
	cfg := workload.Config{Model: m, BatchSize: batches[g.rng.Intn(len(batches))]}
	if m.AMPAllowed() && g.rng.Bool(0.35) {
		cfg.AMP = true
	}

	return &template{
		name:       fmt.Sprintf("%s-%s-t%d", usr.name, cfg.Model.Name(), g.nextTmpl),
		cfg:        cfg,
		gpus:       gpus,
		longMedian: longMedian,
		pDebug:     pDebug,
	}
}

func (g *Generator) vcNodesOf(vc string) int {
	for _, s := range g.cluster.VCs {
		if s.Name == vc {
			return s.Nodes
		}
	}
	return 0
}

// hourWeights is the diurnal submission pattern: quiet nights, morning and
// afternoon peaks — the shape the Throughput Predict Model must learn
// (Figure 7b).
var hourWeights = []float64{
	0.25, 0.18, 0.14, 0.12, 0.12, 0.15, // 0-5
	0.25, 0.45, 0.75, 1.00, 1.15, 1.10, // 6-11
	0.85, 0.95, 1.15, 1.20, 1.10, 0.95, // 12-17
	0.80, 0.70, 0.60, 0.50, 0.40, 0.30, // 18-23
}

// dayWeight damps weekends.
func dayWeight(day int) float64 {
	switch day % 7 {
	case 5, 6:
		return 0.55
	default:
		return 1.0
	}
}

// Emit generates one window of jobs. numJobs ≤ 0 uses the spec's NumJobs.
// Each call consumes generator state, so successive calls produce distinct
// months drawn from the same user/template population.
func (g *Generator) Emit(numJobs int) *Trace {
	if numJobs <= 0 {
		numJobs = g.spec.NumJobs
	}
	g.emitted++
	days := g.spec.Days

	jobs := make([]*job.Job, 0, numJobs)
	for i := 0; i < numJobs; i++ {
		vcIdx := g.vcJob.Draw(g.rng)
		users := g.users[vcIdx]
		usr := users[g.rng.Intn(len(users))]

		var tm *template
		if g.rng.Bool(recurFrac) || len(usr.templates) == 0 {
			// Recurrence: Zipf over the user's templates — a few dominate.
			tm = usr.templates[g.zipf.Draw(g.rng, len(usr.templates))]
		} else {
			tm = g.newTemplate(usr)
			usr.templates = append(usr.templates, tm)
		}
		tm.uses++

		var dur float64
		if g.rng.Bool(tm.pDebug) {
			// Debug/test run: seconds to minutes.
			dur = g.rng.LogNormal(math.Log(100), 1.0)
			if dur < 10 {
				dur = 10
			}
			if dur > 900 {
				dur = 900
			}
		} else {
			dur = tm.longMedian * g.rng.LogNormal(0, 0.35)
		}

		submit := int64(g.hour.Draw(g.rng))*3600 + g.rng.Int63n(3600)

		j := job.New(g.nextJobID,
			fmt.Sprintf("%s-v%d", tm.name, tm.uses),
			usr.name, usr.vc, tm.gpus, submit, int64(dur), tm.cfg)
		g.nextJobID++
		jobs = append(jobs, j)
	}

	rescaleDurations(jobs, g.spec.AvgDuration)
	g.capPerVCLoad(jobs, days)
	capOfferedLoad(jobs, g.cluster.TotalGPUs(), days, g.spec.TargetLoad)
	sortBySubmit(jobs)
	return &Trace{
		Name:    fmt.Sprintf("%s-%s#%d", g.spec.Name, g.spec.Util, g.emitted),
		Cluster: g.cluster,
		Jobs:    jobs,
		Days:    days,
	}
}

// rescaleDurations multiplies the non-debug durations so the overall mean
// hits the Table 2 target (debug jobs stay short — that is their point).
func rescaleDurations(jobs []*job.Job, target float64) {
	if target <= 0 || len(jobs) == 0 {
		return
	}
	var debugSum, longSum float64
	var longN int
	for _, j := range jobs {
		if j.Duration <= 900 {
			debugSum += float64(j.Duration)
		} else {
			longSum += float64(j.Duration)
			longN++
		}
	}
	if longN == 0 {
		return
	}
	// target·n = debugSum + k·longSum  →  k.
	k := (target*float64(len(jobs)) - debugSum) / longSum
	if k <= 0 {
		return
	}
	for _, j := range jobs {
		if j.Duration > 900 {
			d := int64(float64(j.Duration) * k)
			if d < 901 {
				d = 901
			}
			j.Duration = d
			j.RemainingWork = float64(d)
		}
	}
}

// maxVCLoad bounds any single VC's offered load. Transiently hot VCs drive
// the queueing the schedulers are measured on, but a VC overloaded for the
// whole month would never drain and the trace would be unschedulable by any
// policy.
const maxVCLoad = 1.25

// capPerVCLoad scales down the durations of jobs in VCs whose offered load
// exceeds maxVCLoad.
func (g *Generator) capPerVCLoad(jobs []*job.Job, days int) {
	demand := map[string]float64{}
	for _, j := range jobs {
		demand[j.VC] += float64(j.Duration) * float64(j.GPUs)
	}
	window := float64(days) * 86400
	scale := map[string]float64{}
	for _, vcSpec := range g.cluster.VCs {
		cap := float64(vcSpec.Nodes*gpusPerNode) * window
		if d := demand[vcSpec.Name]; d > maxVCLoad*cap {
			scale[vcSpec.Name] = maxVCLoad * cap / d
		}
	}
	if len(scale) == 0 {
		return
	}
	for _, j := range jobs {
		k, ok := scale[j.VC]
		if !ok {
			continue
		}
		d := int64(float64(j.Duration) * k)
		if d < 10 {
			d = 10
		}
		j.Duration = d
		j.RemainingWork = float64(d)
	}
}

// capOfferedLoad scales durations down uniformly when the emitted month
// demands more GPU-time than TargetLoad of the cluster-window capacity.
// Table 2's mean durations and cluster sizes are not mutually consistent
// with a schedulable month under every GPU-demand mix, so feasibility wins
// over matching the published mean exactly (recorded in EXPERIMENTS.md).
func capOfferedLoad(jobs []*job.Job, totalGPUs, days int, target float64) {
	var demand float64
	for _, j := range jobs {
		demand += float64(j.Duration) * float64(j.GPUs)
	}
	capacity := float64(totalGPUs) * float64(days) * 86400
	if capacity <= 0 || demand <= target*capacity {
		return
	}
	k := target * capacity / demand
	for _, j := range jobs {
		d := int64(float64(j.Duration) * k)
		if d < 10 {
			d = 10
		}
		j.Duration = d
		j.RemainingWork = float64(d)
	}
}

func sortBySubmit(jobs []*job.Job) {
	sort.Slice(jobs, func(i, k int) bool {
		a, b := jobs[i], jobs[k]
		if a.Submit != b.Submit {
			return a.Submit < b.Submit
		}
		return a.ID < b.ID
	})
}
