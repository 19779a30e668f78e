package feat

import (
	"cmp"
	"slices"
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
	// baseBucket holds the name bucket of every template base the fit saw
	// (the clustered top bases by their exemplar, the rest by their nearest
	// one) and memoizes bucketOf's answers for bases met later. One
	// featurizer is shared by estimator clones across concurrent scheduler
	// runs (the fitted state is read-only; this memo is the one exception),
	// so it is mutex-guarded. The memoized value is a pure function of the
	// base, so concurrent fills stay deterministic.
	bucketMu   sync.Mutex
	baseBucket map[string]int
	userMean   map[string]float64
	tmplMean   map[string]float64
	tmplCount  map[string]float64
	gpuMean    map[int]float64
	globalMean float64

	// lin is the name-similarity work the next Refit reuses; a loaded
	// featurizer has none.
	lin *lineage
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
	f, _ := fit(nil, history, includeProfile, false)
	return f
}

// Refit is the Update Engine's featurizer step: it fits the encoder on
// history and returns it with history's table, bit for bit
// NewDurationFeaturizer(history, includeProfile).Dataset(history). It reuses
// the name similarities along prev's lineage, so only new template bases and
// new exemplars cost Levenshtein calls. prev is only read; nil, or a loaded
// featurizer, starts the lineage afresh.
func Refit(prev *DurationFeaturizer, history []*job.Job, includeProfile bool) (*DurationFeaturizer, *mlmodel.Dataset) {
	var lin *lineage
	if prev != nil {
		lin = prev.lin
	}
	return fit(lin, history, includeProfile, true)
}

// fit fits a featurizer in one pass over history, summing durations per
// template base, user and GPU count in history order, as map sums would.
// With table, the pass also writes each row's job columns; the history
// encodings (HistoryEncoded) are filled in from the per-key means once it is
// done.
func fit(prev *lineage, history []*job.Job, includeProfile, table bool) (*DurationFeaturizer, *mlmodel.Dataset) {
	f := &DurationFeaturizer{
		IncludeProfile:   includeProfile,
		MaxNameExemplars: 150,
		baseBucket:       map[string]int{},
		userMean:         map[string]float64{},
		tmplMean:         map[string]float64{},
		tmplCount:        map[string]float64{},
		gpuMean:          map[int]float64{},
		lin:              prev.extend(),
	}
	type rowKeys struct{ base, user, gpu int32 }
	keys := make([]rowKeys, len(history))
	var x [][]float64
	var y, cells []float64
	if table {
		x, y = make([][]float64, len(history)), make([]float64, len(history))
		cells = make([]float64, 0, len(history)*f.width())
	}
	// The lineage's base count sizes the base table: refits see mostly the
	// bases their predecessors saw.
	bases := newKeySums[string](len(f.lin.bases))
	users, gpus := newKeySums[string](0), newKeySums[int](0)
	var total float64
	for i, j := range history {
		d := float64(j.Duration)
		keys[i] = rowKeys{bases.add(TemplateBase(j.Name), d), users.add(j.User, d), gpus.add(j.GPUs, d)}
		total += d
		if table {
			start := len(cells)
			cells = f.appendRow(cells, j, 0, 0, 0, 0, 0)
			x[i] = cells[start:len(cells):len(cells)]
			y[i] = d
		}
	}
	if len(history) > 0 {
		f.globalMean = total / float64(len(history))
	}
	userMean, gpuMean := users.means(f.userMean), gpus.means(f.gpuMean)
	tmplMean, tmplCount := bases.means(f.tmplMean), bases.n
	for b, base := range bases.keys {
		f.tmplCount[base] = tmplCount[b]
	}
	bucket := f.clusterNames(bases.keys, tmplCount)
	f.lin.slab = nil // the lineage is published with f: no spare cells
	if !table {
		return f, nil
	}
	for i, k := range keys {
		r := x[i]
		r[3], r[4], r[5] = float64(bucket[k.base]), tmplMean[k.base], tmplCount[k.base]
		r[6], r[7] = userMean[k.user], gpuMean[k.gpu]
	}
	ds, err := mlmodel.NewDataset(x, y, f.Names())
	if err != nil {
		panic("feat: internal shape error: " + err.Error())
	}
	return f, ds
}

// keySums sums durations per key; a key's id is its first-seen position.
type keySums[K comparable] struct {
	ids    map[K]int32
	keys   []K
	sum, n []float64
}

func newKeySums[K comparable](size int) *keySums[K] {
	return &keySums[K]{
		ids:  make(map[K]int32, size),
		keys: make([]K, 0, size),
		sum:  make([]float64, 0, size),
		n:    make([]float64, 0, size),
	}
}

// add adds d to k's sum and returns k's id.
func (s *keySums[K]) add(k K, d float64) int32 {
	id, ok := s.ids[k]
	if !ok {
		id = int32(len(s.keys))
		s.ids[k] = id
		s.keys = append(s.keys, k)
		s.sum, s.n = append(s.sum, 0), append(s.n, 0)
	}
	s.sum[id] += d
	s.n[id]++
	return id
}

// means turns every sum into its mean, records it in m and returns the
// means by id.
func (s *keySums[K]) means(m map[K]float64) []float64 {
	for id, k := range s.keys {
		s.sum[id] /= s.n[id]
		m[k] = s.sum[id]
	}
	return s.sum
}

// clusterNames clusters the most frequent bases (count holds their rows) by
// name similarity and returns every base's bucket, taking the similarities
// from the lineage.
func (f *DurationFeaturizer) clusterNames(bases []string, count []float64) []int {
	bucket := make([]int, len(bases))
	order := make([]int32, len(bases)) // by descending count, then name
	for b := range order {
		order[b] = int32(b)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(count[b], count[a]); c != 0 {
			return c
		}
		return strings.Compare(bases[a], bases[b])
	})
	k := min(len(order), f.MaxNameExemplars)
	if k == 0 {
		return bucket
	}
	lin := f.lin
	ids := make([]int32, len(order)) // lineage ids, in order
	for i, b := range order {
		ids[i] = lin.intern(bases[b])
	}
	sim := lin.topSimilarities(ids[:k])
	minSim := 1.0
	for i := range sim {
		for j := i + 1; j < k; j++ {
			minSim = min(minSim, sim[i][j])
		}
	}
	// A low preference (the minimum similarity) biases toward coarse
	// buckets: recurring name families collapse onto one exemplar.
	assign := affprop.Cluster(sim, minSim)
	// Exemplar list in first-seen order; bucket id = exemplar rank.
	exIdx := map[int]int{}
	var exemplars []int32
	for _, e := range assign {
		if _, ok := exIdx[e]; !ok {
			exIdx[e] = len(exemplars)
			exemplars = append(exemplars, ids[e])
			f.exemplars = append(f.exemplars, bases[order[e]])
		}
	}
	for i, e := range assign {
		bucket[order[i]] = exIdx[e]
	}
	for i, bi := range lin.nearestExemplars(ids[k:], exemplars) {
		bucket[order[k+i]] = bi
	}
	for b, base := range bases {
		f.baseBucket[base] = bucket[b]
	}
	return bucket
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
	return f.appendRow(dst, j, f.bucketOf(base), tm, f.tmplCount[base], um, gm)
}

// appendRow appends j's feature row, given its history encodings, to dst.
func (f *DurationFeaturizer) appendRow(dst []float64, j *job.Job, bucket int, tm, tc, um, gm float64) []float64 {
	dst = append(dst,
		float64(j.GPUs),
		float64((j.Submit/3600)%24),
		float64((j.Submit/86400)%7),
		float64(bucket),
		tm,
		tc,
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
