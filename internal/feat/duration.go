package feat

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/job"
	"repro/internal/ml/affprop"
	"repro/internal/ml/mlmodel"
	"repro/internal/ml/textdist"
)

// DurationFeaturizer turns a job into the Workload Estimate Model's feature
// row (§3.5.3). It is fit on historical completed jobs:
//
//   - job names are reduced to template bases, the most frequent bases are
//     clustered with Levenshtein similarity + affinity propagation, and
//     every job maps to its nearest exemplar bucket;
//   - users and templates get historical mean-duration encodings (the §3.4
//     fallbacks: a new job inherits its user's history, a new user inherits
//     the mean duration of jobs with the same GPU demand);
//   - temporal features (hour, day-of-week) expose the submission rhythm;
//   - optionally, the profiled resource features — this is the information
//     edge Lucid's estimator has over QSSF's.
type DurationFeaturizer struct {
	// IncludeProfile appends GPU util / memory / mem-util / AMP features.
	IncludeProfile bool
	// MaxNameExemplars caps the affinity-propagation input size.
	MaxNameExemplars int

	exemplars []string
	// baseBucket memoizes nearest-exemplar lookups for bases unseen at fit
	// time. One featurizer is shared by estimator clones across concurrent
	// scheduler runs (the fitted state is read-only; this memo is the one
	// exception), so it is mutex-guarded. The memoized value is a pure
	// function of the base, so concurrent fills stay deterministic.
	bucketMu   sync.Mutex
	baseBucket map[string]int
	userMean   map[string]float64
	tmplMean   map[string]float64
	tmplCount  map[string]float64
	gpuMean    map[int]float64
	globalMean float64
}

// TemplateBase strips the per-submission suffix ("-v17") from a job name,
// recovering the recurring template identity.
func TemplateBase(name string) string {
	if i := strings.LastIndex(name, "-v"); i > 0 {
		// Only strip when the suffix is numeric-ish.
		suffix := name[i+2:]
		numeric := len(suffix) > 0
		for _, r := range suffix {
			if r < '0' || r > '9' {
				numeric = false
				break
			}
		}
		if numeric {
			return name[:i]
		}
	}
	return name
}

// NewDurationFeaturizer fits the encoder on completed history jobs.
func NewDurationFeaturizer(history []*job.Job, includeProfile bool) *DurationFeaturizer {
	f := &DurationFeaturizer{
		IncludeProfile:   includeProfile,
		MaxNameExemplars: 150,
		baseBucket:       map[string]int{},
		userMean:         map[string]float64{},
		tmplMean:         map[string]float64{},
		tmplCount:        map[string]float64{},
		gpuMean:          map[int]float64{},
	}
	f.fit(history)
	return f
}

func (f *DurationFeaturizer) fit(history []*job.Job) {
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

	// Cluster the most frequent template bases by name similarity.
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
	k := len(bases)
	if k > f.MaxNameExemplars {
		k = f.MaxNameExemplars
	}
	if k == 0 {
		return
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
	// A low preference (the minimum similarity) biases toward coarse
	// buckets: recurring name families collapse onto one exemplar.
	assign := affprop.Cluster(sim, affprop.Params{Preference: minSim, HasPref: true})
	// Exemplar list in first-seen order; bucket id = exemplar rank.
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
}

// bucketOf maps a template base to its name bucket, assigning unseen bases
// to the nearest exemplar (cached).
func (f *DurationFeaturizer) bucketOf(base string) int {
	f.bucketMu.Lock()
	b, ok := f.baseBucket[base]
	f.bucketMu.Unlock()
	if ok {
		return b
	}
	if len(f.exemplars) == 0 {
		return 0
	}
	best, bi := -1.0, 0
	for i, ex := range f.exemplars {
		if s := textdist.Similarity(base, ex); s > best {
			best, bi = s, i
		}
	}
	f.bucketMu.Lock()
	f.baseBucket[base] = bi
	f.bucketMu.Unlock()
	return bi
}

// durationFeatureNames is the model's feature inventory (profile features
// appended when enabled).
var durationFeatureNames = []string{
	"gpu_num", "hour", "dayofweek",
	"name_bucket", "tmpl_mean", "tmpl_count", "user_mean", "gpu_mean",
}

var profileFeatureNames = []string{"gpu_util", "gpu_mem_mb", "gpu_mem_util", "amp"}

// HistoryEncoded lists the columns a fit derives from its history rather
// than from the job: name_bucket (an exemplar rank, renumbered at every fit)
// and the template, user and GPU-demand encodings. A refit re-derives them,
// so a model fine-tuned across refits bins them afresh.
func HistoryEncoded() []int { return []int{3, 4, 5, 6, 7} }

// Names returns the feature names for this featurizer's configuration.
func (f *DurationFeaturizer) Names() []string {
	out := append([]string(nil), durationFeatureNames...)
	if f.IncludeProfile {
		out = append(out, profileFeatureNames...)
	}
	return out
}

// Features encodes one job. Fallback chain for the mean encodings follows
// §3.4: template history → user history → same-GPU-demand mean → global.
func (f *DurationFeaturizer) Features(j *job.Job) []float64 {
	return f.appendFeatures(make([]float64, 0, f.width()), j)
}

// width is the length of a feature row.
func (f *DurationFeaturizer) width() int {
	if f.IncludeProfile {
		return len(durationFeatureNames) + len(profileFeatureNames)
	}
	return len(durationFeatureNames)
}

// appendFeatures appends j's feature row to dst.
func (f *DurationFeaturizer) appendFeatures(dst []float64, j *job.Job) []float64 {
	base := TemplateBase(j.Name)
	tm, ok := f.tmplMean[base]
	if !ok {
		if um, uok := f.userMean[j.User]; uok {
			tm = um
		} else if gm, gok := f.gpuMean[j.GPUs]; gok {
			tm = gm
		} else {
			tm = f.globalMean
		}
	}
	um, ok := f.userMean[j.User]
	if !ok {
		if gm, gok := f.gpuMean[j.GPUs]; gok {
			um = gm
		} else {
			um = f.globalMean
		}
	}
	gm, ok := f.gpuMean[j.GPUs]
	if !ok {
		gm = f.globalMean
	}
	dst = append(dst,
		float64(j.GPUs),
		float64((j.Submit/3600)%24),
		float64((j.Submit/86400)%7),
		float64(f.bucketOf(base)),
		tm,
		f.tmplCount[base],
		um,
		gm,
	)
	if f.IncludeProfile {
		amp := 0.0
		if j.Profile.AMP || j.AMP {
			amp = 1
		}
		dst = append(dst, j.Profile.GPUUtil, j.Profile.GPUMemMB, j.Profile.GPUMemUtil, amp)
	}
	return dst
}

// Dataset builds the supervised table (target: duration in seconds). Its rows
// are carved from one backing array.
func (f *DurationFeaturizer) Dataset(jobs []*job.Job) *mlmodel.Dataset {
	x := make([][]float64, len(jobs))
	y := make([]float64, len(jobs))
	cells := make([]float64, 0, len(jobs)*f.width())
	for i, j := range jobs {
		start := len(cells)
		cells = f.appendFeatures(cells, j)
		x[i] = cells[start:len(cells):len(cells)]
		y[i] = float64(j.Duration)
	}
	ds, err := mlmodel.NewDataset(x, y, f.Names())
	if err != nil {
		panic("feat: internal shape error: " + err.Error())
	}
	return ds
}
