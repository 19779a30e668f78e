// Package gam implements the Generalized Additive Model (Lou et al. 2013
// [59]; Nori et al. 2021 [69]) behind Lucid's Throughput Predict Model and
// Workload Estimate Model (§3.5.2–3.5.3):
//
//	y = μ + Σ f_i(x_i)
//
// Each shape function f_i is a per-bin additive score table learned by
// cyclic gradient boosting (the Explainable Boosting Machine recipe: tiny
// per-feature updates, round-robin over features, so correlated features
// share credit). The paper's GA²M adds pairwise terms f_ij(x_i, x_j). At
// Table 7's scale they lowered its duration R² on 4 of 5 trace seeds, and no
// production fit used them, so the model has none (EXPERIMENTS.md, "Ruled
// out").
//
// Because every term is a lookup table over one feature, the model is
// exactly as interpretable as the paper requires: global importance is the
// mean absolute score of a term (Figure 7a), a shape function is the table
// itself (Figure 7b), and a local explanation is the list of per-term
// contributions that sum to the prediction (Figure 7c).
package gam

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/ml/isotonic"
	"repro/internal/ml/mlmodel"
)

// Params configures training.
type Params struct {
	MaxBins      int     // per-feature bins (default 32)
	Rounds       int     // boosting rounds over all features (default 300)
	LearningRate float64 // per-update shrinkage (default 0.05)
}

func (p Params) normalized() Params {
	if p.MaxBins <= 1 {
		p.MaxBins = 32
	}
	if p.Rounds <= 0 {
		p.Rounds = 300
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.05
	}
	return p
}

// feature holds the learned state for one input dimension.
type feature struct {
	name  string
	edges []float64 // ascending bin upper edges; len(edges)+1 bins
	score []float64 // additive score per bin
	count []int     // training rows per bin (for importance & PAV weights)
}

// bin maps a raw value to its bin index: the first bin whose edge is ≥ v,
// the last bin for a value beyond the last edge.
func (f *feature) bin(v float64) int { return sort.SearchFloat64s(f.edges, v) }

func (f *feature) numBins() int { return len(f.edges) + 1 }

// Model is a trained GAM.
type Model struct {
	intercept float64
	feats     []*feature
}

// Fit trains a GAM on the dataset. It rejects an empty dataset, a MaxBins
// beyond the 65,536 a bin index holds, and any NaN or ±Inf feature or target,
// naming the row and feature.
//
// Fit and FitFrom are one boosting path: Fit starts it from μ = mean(y) and,
// for every feature, quantile edges and a zero shape.
func Fit(ds *mlmodel.Dataset, p Params) (*Model, error) {
	m := &Model{intercept: mlmodel.Mean(ds.Y), feats: make([]*feature, ds.NumFeatures())}
	return m.boostFrom(ds, p)
}

// FitFrom fine-tunes prev on the dataset: it keeps prev's intercept, bin
// edges and shapes, re-bins only the fresh features (new quantile edges,
// zero shape), runs p.Rounds boosting rounds from there and centres the
// result. prev is only read, so many fits may start from one model at once.
// It rejects what Fit rejects, a dataset whose width is not prev's and an
// out-of-range fresh index.
func FitFrom(prev *Model, ds *mlmodel.Dataset, p Params, fresh []int) (*Model, error) {
	if d := ds.NumFeatures(); ds.Len() > 0 && d != len(prev.feats) {
		return nil, fmt.Errorf("gam: dataset has %d features, the model %d", d, len(prev.feats))
	}
	m := &Model{intercept: prev.intercept, feats: make([]*feature, len(prev.feats))}
	for j, f := range prev.feats {
		m.feats[j] = &feature{name: f.name, edges: f.edges, score: append([]float64(nil), f.score...)}
	}
	for _, j := range fresh {
		if j < 0 || j >= len(m.feats) {
			return nil, fmt.Errorf("gam: fresh feature %d out of range [0, %d)", j, len(m.feats))
		}
		m.feats[j] = nil
	}
	return m.boostFrom(ds, p)
}

// boostFrom is the one boosting path. m holds the start: its intercept, and
// per feature either the edges and shape to continue from or nil, which
// bins that feature afresh with a zero shape. It codes each column against
// its distinct values, bins each distinct value once, counts the rows per
// bin, boosts p.Rounds rounds from the start's predictions and centres the
// result.
func (m *Model) boostFrom(ds *mlmodel.Dataset, p Params) (*Model, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("gam: empty dataset")
	}
	p = p.normalized()
	if p.MaxBins > cells {
		return nil, fmt.Errorf("gam: MaxBins %d exceeds the %d a bin index holds", p.MaxBins, cells)
	}
	n := ds.Len()
	d := ds.NumFeatures()

	pred := make([]float64, n)
	for i, y := range ds.Y {
		if y-y != 0 {
			return nil, fmt.Errorf("gam: row %d target is %v", i, y)
		}
		pred[i] = m.intercept
	}

	// Bin every feature once: bins[j*n+i] is row i's bin of feature j, so a
	// boosting pass over one feature streams n contiguous 2-byte indices.
	// A row's bin is its distinct value's, looked up. pred starts at the
	// start model's prediction (μ exactly, for Fit), adding in feature order.
	bins := make([]uint16, n*d)
	col := distinct{ids: make([]int32, n)}
	var binOf []uint16
	terms := make([]term, d)
	for j := 0; j < d; j++ {
		if err := col.code(ds, j); err != nil {
			return nil, err
		}
		f := m.feats[j]
		if f == nil {
			f = &feature{name: ds.FeatureName(j), edges: col.edges(p.MaxBins)}
			f.score = make([]float64, f.numBins())
			m.feats[j] = f
		} else if f.numBins() > cells {
			return nil, fmt.Errorf("gam: feature %d (%s) has %d bins, beyond the %d a bin index holds", j, f.name, f.numBins(), cells)
		}
		f.count = make([]int, f.numBins())
		binOf = binOf[:0]
		for _, e := range col.vals {
			b := f.bin(e.v)
			binOf = append(binOf, uint16(b))
			f.count[b] += e.n
		}
		idx := bins[j*n : (j+1)*n : (j+1)*n]
		for i, k := range col.ids {
			b := binOf[k]
			idx[i] = b
			pred[i] += f.score[b]
		}
		terms[j] = term{idx: idx, count: f.count, score: f.score}
	}

	boost(ds.Y, pred, terms, p.Rounds, p.LearningRate)

	m.center()
	return m, nil
}

// cells is how many cells a uint16 index reaches: the most bins a feature
// may have.
const cells = math.MaxUint16 + 1

// distinct codes one column against its distinct values: ids[i] is the
// index into vals of row i's value, vals lists the values in order of first
// row with their row counts. ±0 are one value, the first seen standing for
// both. Its buffers are reused from column to column.
type distinct struct {
	ids   []int32
	vals  []valueCount
	slots []int32 // open addressing on the value's bits: index into vals + 1; 0 is empty
}

type valueCount struct {
	v float64
	n int
}

// code fills c from feature j of ds, rejecting a NaN or ±Inf value with its
// row and feature named.
func (c *distinct) code(ds *mlmodel.Dataset, j int) error {
	c.vals, c.slots = c.vals[:0], make([]int32, 16)
	for i, row := range ds.X {
		v := row[j]
		if v-v != 0 {
			return fmt.Errorf("gam: row %d feature %d (%s) is %v", i, j, ds.FeatureName(j), v)
		}
		h := c.slot(v)
		if c.slots[h] == 0 {
			c.vals = append(c.vals, valueCount{v: v})
			c.slots[h] = int32(len(c.vals))
		}
		k := c.slots[h] - 1
		c.vals[k].n++
		c.ids[i] = k
		if 2*len(c.vals) > len(c.slots) {
			c.slots = make([]int32, 2*len(c.slots))
			for x, e := range c.vals {
				c.slots[c.slot(e.v)] = int32(x + 1)
			}
		}
	}
	return nil
}

// slot returns the slot holding v, or the empty one where v goes.
func (c *distinct) slot(v float64) int {
	key := math.Float64bits(v)
	if v == 0 {
		key = 0 // -0 is +0
	}
	mask := len(c.slots) - 1
	h := int((key^key>>29)*0x9e3779b97f4a7c15>>(64-bits.Len(uint(mask)))) & mask
	for c.slots[h] != 0 && c.vals[c.slots[h]-1].v != v {
		h = (h + 1) & mask
	}
	return h
}

// edges computes a fresh feature's ≤ maxBins-1 ascending cut points from the
// column's sorted (value, count) list: one bin per distinct value, with edges
// halfway between neighbours, while they number ≤ maxBins; else the value at
// rank ⌊b/maxBins·(n-1)⌋ for b = 1…maxBins-1, duplicates collapsed.
//
// The rank is read with a known defect, pinned not fixed (ROADMAP 2(b),
// TestQuantileEdgesKnownDefect): a rank r below the number of distinct
// values u reads the r-th smallest distinct value, not the r-th order
// statistic the running counts give — the bits of the sort and in-place
// deduplication this replaced. The fix is to read the order statistic only.
func (c *distinct) edges(maxBins int) []float64 {
	u := len(c.vals)
	if u <= 1 {
		return nil // single bin
	}
	sorted := slices.Clone(c.vals)
	slices.SortFunc(sorted, func(a, b valueCount) int { return cmp.Compare(a.v, b.v) })
	if u <= maxBins {
		edges := make([]float64, u-1)
		for i := range edges {
			edges[i] = (sorted[i].v + sorted[i+1].v) / 2
		}
		return edges
	}
	n := len(c.ids)
	edges := make([]float64, 0, maxBins-1)
	t, upTo := 0, sorted[0].n // rows holding sorted[0..t]
	for b := 1; b < maxBins; b++ {
		r := int(float64(b) / float64(maxBins) * float64(n-1))
		for upTo <= r {
			t++
			upTo += sorted[t].n
		}
		v := sorted[t].v // the order statistic
		if r < u {
			v = sorted[r].v // the defect
		}
		if len(edges) == 0 || v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	return edges
}

// term is one additive lookup table during training: every row's bin, the
// rows per bin and the score per bin.
type term struct {
	idx   []uint16
	count []int
	score []float64
}

// boost runs rounds of cyclic gradient boosting over terms: each step moves
// one term's every cell by lr × the mean residual of the cell's rows, and
// pred follows. One step is one pass over the rows — adding the current
// term's per-cell step to pred is fused with summing the next term's
// residuals (wrapping to the first term of the next round). sum and delta
// are 65,536-cell arrays, so a uint16 cell indexes them with no bounds check.
//
// The fitted bits are a contract (DESIGN.md, ml/gam): the step of a cell is
// lr*sum/float64(count) in that operation order, computed once per cell; rows
// are visited in ascending index, so every per-cell sum keeps its order of
// addition; the residual is always y[i]-pred[i] from the current pred, never
// a maintained vector — (y-pred)-δ and y-(pred+δ) round differently.
func boost(y, pred []float64, terms []term, rounds int, lr float64) {
	if len(terms) == 0 || rounds <= 0 {
		return
	}
	sum, delta := new([cells]float64), new([cells]float64)
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
		// The sums the last step leaves behind are not used.
		clear(sum[:len(next.count)])
		curIdx, nextIdx := cur.idx[:len(pred)], next.idx[:len(pred)]
		for i, yi := range y[:len(pred)] {
			v := pred[i] + delta[curIdx[i]]
			pred[i] = v
			sum[nextIdx[i]] += yi - v
		}
	}
}

// center shifts every term to zero weighted mean and folds the offsets into
// the intercept, the canonical EBM normalization that makes term scores
// comparable.
func (m *Model) center() {
	for _, f := range m.feats {
		total := 0
		wsum := 0.0
		for b, c := range f.count {
			total += c
			wsum += f.score[b] * float64(c)
		}
		if total == 0 {
			continue
		}
		off := wsum / float64(total)
		for b := range f.score {
			f.score[b] -= off
		}
		m.intercept += off
	}
}

// Predict evaluates the model on one row.
func (m *Model) Predict(x []float64) float64 {
	s := m.intercept
	for j, f := range m.feats {
		s += f.score[f.bin(x[j])]
	}
	return s
}

// GlobalImportance returns the mean absolute score of each term over
// the training distribution — the Figure 7a "Average Absolute Score" bars.
func (m *Model) GlobalImportance() []float64 {
	out := make([]float64, len(m.feats))
	for j, f := range m.feats {
		total := 0
		s := 0.0
		for b, c := range f.count {
			total += c
			s += math.Abs(f.score[b]) * float64(c)
		}
		if total > 0 {
			out[j] = s / float64(total)
		}
	}
	return out
}

// ShapePoint is one bin of a shape function: the upper edge of the bin (or
// +Inf for the last) and its additive score.
type ShapePoint struct {
	UpperEdge float64
	Score     float64
	Count     int
}

// ShapeFunction returns the learned shape of term j — the Figure 7b
// plot.
func (m *Model) ShapeFunction(j int) []ShapePoint {
	f := m.feats[j]
	out := make([]ShapePoint, f.numBins())
	for b := range out {
		edge := math.Inf(1)
		if b < len(f.edges) {
			edge = f.edges[b]
		}
		out[b] = ShapePoint{UpperEdge: edge, Score: f.score[b], Count: f.count[b]}
	}
	return out
}

// Contribution is one term's share of a single prediction.
type Contribution struct {
	Name  string
	Value float64 // raw feature value
	Score float64
}

// Explain decomposes one prediction into intercept + per-term contributions
// — the Figure 7c local interpretation. The scores plus the intercept sum
// exactly to Predict(x).
func (m *Model) Explain(x []float64) (intercept float64, contribs []Contribution) {
	intercept = m.intercept
	for j, f := range m.feats {
		contribs = append(contribs, Contribution{
			Name:  f.name,
			Value: x[j],
			Score: f.score[f.bin(x[j])],
		})
	}
	return intercept, contribs
}

// ApplyMonotonic replaces term j's shape with its isotonic (PAV)
// projection, weighted by bin populations — §3.6.1's monotonic constraint:
// the shape becomes non-decreasing.
func (m *Model) ApplyMonotonic(j int) {
	f := m.feats[j]
	w := make([]float64, f.numBins())
	for b, c := range f.count {
		w[b] = float64(c)
		if c == 0 {
			w[b] = 1e-9 // keep empty bins from pinning the fit
		}
	}
	f.score = isotonic.Regression(f.score, w)
}

var _ mlmodel.Regressor = (*Model)(nil)
