package dtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/ml/mlmodel"
)

// Matrix is a dataset prepared for tree growth: the features column-major
// and, per feature, the row ids in ascending (value, row index) order.
// Building it is the only sort a fit performs. A tree node is a segment
// [lo,hi) of every feature's order array at once; a split scan walks the
// segment, and an accepted split stable-partitions each feature's segment by
// the side its rows took, so both children are again sorted segments (the
// SLIQ / exact-greedy presort scheme).
//
// Determinism contract: ties on a feature value are taken in ascending row
// index, and a node's rows are visited in ascending row index. Every float
// sum a fit computes follows one of those two orders, so a tree is a function
// of (data, targets, row set, Params) alone.
//
// One Matrix serves any number of fits over the same features — every
// boosting round of gbdt.Fit — but, because it owns the grower's scratch,
// only one at a time.
type Matrix struct {
	n     int
	names []string
	col   [][]float64 // col[f][row]
	order [][]int32   // order[f]: every row, ascending by (col[f][row], row)

	// Grower scratch, reused by every fit.
	ord    [][]int32 // ord[f]: order[f] restricted to the fit's rows, partitioned as the tree grows
	rows   []int32   // the fit's rows; every node's segment is in ascending row index
	tmp    []int32   // right-hand rows of the partition in progress
	goLeft []bool    // per row, the side it takes in the split being applied
}

// NewMatrix transposes and presorts a dataset. It rejects an empty dataset
// and any NaN or ±Inf feature or target, naming the row and feature.
func NewMatrix(ds *mlmodel.Dataset) (*Matrix, error) {
	n, d := ds.Len(), ds.NumFeatures()
	if n == 0 {
		return nil, fmt.Errorf("dtree: empty dataset")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dtree: %d rows exceed the 2^31-1 the row index holds", n)
	}
	if err := ds.CheckFinite(); err != nil {
		return nil, fmt.Errorf("dtree: %w", err)
	}
	m := &Matrix{
		n: n, names: ds.Names, col: make([][]float64, d), order: make([][]int32, d),
		ord: make([][]int32, d), rows: make([]int32, 0, n), tmp: make([]int32, 0, n), goLeft: make([]bool, n),
	}
	vals := make([]float64, n*d)
	ids := make([]int32, 2*n*d)
	type entry struct {
		v   float64
		row int32
	}
	sorted := make([]entry, n)
	for f := range m.col {
		m.col[f], m.order[f] = vals[f*n:(f+1)*n:(f+1)*n], ids[f*n:(f+1)*n:(f+1)*n]
		m.ord[f] = ids[(d+f)*n : (d+f)*n : (d+f+1)*n]
		for i, row := range ds.X {
			m.col[f][i] = row[f]
			sorted[i] = entry{row[f], int32(i)}
		}
		// The values are finite, so < and > order them totally (-0 == +0,
		// as in the split scan).
		slices.SortFunc(sorted, func(a, b entry) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return cmp.Compare(a.row, b.row)
		})
		for i, e := range sorted {
			m.order[f][i] = e.row
		}
	}
	return m, nil
}

// FitRegressor grows a regression tree on targets y (one per matrix row,
// finite) over the rows whose inBag entry is true; a nil inBag means every
// row. The tree equals the one the package-level FitRegressor grows on the
// Dataset.Subset of those rows in ascending order.
func (m *Matrix) FitRegressor(y []float64, inBag []bool, p Params) (*Tree, error) {
	return m.fit(y, inBag, 0, p)
}

func (m *Matrix) fit(y []float64, inBag []bool, numClasses int, p Params) (*Tree, error) {
	if len(y) != m.n || (inBag != nil && len(inBag) != m.n) {
		return nil, fmt.Errorf("dtree: %d targets and %d bag entries for %d rows", len(y), len(inBag), m.n)
	}
	m.rows = m.rows[:0]
	for i := 0; i < m.n; i++ {
		if inBag == nil || inBag[i] {
			m.rows = append(m.rows, int32(i))
		}
	}
	if len(m.rows) == 0 {
		return nil, fmt.Errorf("dtree: no row in the bag")
	}
	for f, all := range m.order {
		o := m.ord[f][:0]
		for _, r := range all {
			if inBag == nil || inBag[r] {
				o = append(o, r)
			}
		}
		m.ord[f] = o
	}
	g := &grower{m: m, y: y, p: p.normalized(), numClasses: numClasses, feats: make([]int, len(m.col))}
	if numClasses > 0 {
		g.left, g.right = make([]float64, numClasses), make([]float64, numClasses)
	}
	return &Tree{root: g.build(0, len(m.rows), 0), numClasses: numClasses, names: m.names, totalRows: len(m.rows)}, nil
}

// grower grows one tree over a Matrix's scratch.
type grower struct {
	m          *Matrix
	y          []float64
	p          Params
	numClasses int // 0 → regression

	left, right []float64 // class histograms either side of the scan position
	feats       []int     // candidate features of the split being searched
}

func (g *grower) leaf(lo, hi int) *node {
	rows := g.m.rows[lo:hi]
	n := &node{feature: -1, nSamples: len(rows)}
	if g.numClasses > 0 {
		n.counts = make([]float64, g.numClasses)
		for _, r := range rows {
			n.counts[int(g.y[r])]++
		}
		n.impurity = gini(n.counts, float64(len(rows)))
		n.class = argmax(n.counts)
		n.value = float64(n.class)
		return n
	}
	sum := 0.0
	for _, r := range rows {
		sum += g.y[r]
	}
	mean := sum / float64(len(rows))
	v := 0.0
	for _, r := range rows {
		d := g.y[r] - mean
		v += d * d
	}
	n.value = mean
	n.impurity = v / float64(len(rows))
	return n
}

func (g *grower) build(lo, hi, depth int) *node {
	n := g.leaf(lo, hi)
	if hi-lo < 2 || n.impurity == 0 {
		return n
	}
	if g.p.MaxDepth > 0 && depth >= g.p.MaxDepth {
		return n
	}
	feat, nl, gain := g.bestSplit(lo, hi, n)
	if feat < 0 || gain <= 1e-12 {
		return n
	}
	seg, col := g.m.ord[feat][lo:hi], g.m.col[feat]
	a, b := col[seg[nl-1]], col[seg[nl]]
	thr := midpoint(a, b)
	if !(a <= thr && thr < b) {
		panic(fmt.Sprintf("dtree: threshold %v does not separate %v from %v", thr, a, b))
	}
	g.partition(lo, hi, feat, nl)
	n.feature = feat
	n.threshold = thr
	n.left = g.build(lo, lo+nl, depth+1)
	n.right = g.build(lo+nl, hi, depth+1)
	return n
}

// midpoint returns a threshold t with a <= t < b for finite a < b, so that
// "x <= t" sends a left and b right. a/2 + b/2 cannot overflow where (a+b)/2
// does, and equals it otherwise; between adjacent floats it rounds to a or
// to b, and b would send both sides left.
func midpoint(a, b float64) float64 {
	if t := a/2 + b/2; a <= t && t < b {
		return t
	}
	return a
}

// bestSplit scans the candidate features of node [lo,hi) for the
// impurity-minimizing cut and returns the feature and how many of its rows,
// in that feature's order, go left.
func (g *grower) bestSplit(lo, hi int, n *node) (feat, nl int, gain float64) {
	feats := g.feats
	for i := range feats {
		feats[i] = i
	}
	if g.p.MaxFeatures > 0 && g.p.MaxFeatures < len(feats) && g.p.RNG != nil {
		g.p.RNG.Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:g.p.MaxFeatures]
	}
	feat = -1
	for _, f := range feats {
		seg, col := g.m.ord[f][lo:hi], g.m.col[f]
		var fg float64
		var fl int
		if g.numClasses > 0 {
			fg, fl = g.scanClasses(seg, col, n)
		} else {
			fg, fl = g.scanVariance(seg, col, n.impurity)
		}
		if fg > gain {
			gain, nl, feat = fg, fl, f
		}
	}
	return feat, nl, gain
}

// scanClasses walks one feature's sorted segment and returns the best Gini
// gain and the number of rows left of that cut (0 when there is none).
func (g *grower) scanClasses(seg []int32, col []float64, parent *node) (bestGain float64, bestLeft int) {
	n := len(seg)
	left, right := g.left, g.right
	clear(left)
	copy(right, parent.counts)
	v := col[seg[0]]
	for i := 0; i < n-1; i++ {
		c := int(g.y[seg[i]])
		left[c]++
		right[c]--
		prev := v
		v = col[seg[i+1]]
		if prev == v {
			continue // cannot split between equal values
		}
		nl, nr := i+1, n-i-1
		if nl < g.p.MinSamplesLeaf || nr < g.p.MinSamplesLeaf {
			continue
		}
		imp := (float64(nl)*gini(left, float64(nl)) + float64(nr)*gini(right, float64(nr))) / float64(n)
		if gain := parent.impurity - imp; gain > bestGain {
			bestGain, bestLeft = gain, nl
		}
	}
	return bestGain, bestLeft
}

// scanVariance is scanClasses for regression: running sums give each cut's
// weighted child variance in O(1).
func (g *grower) scanVariance(seg []int32, col []float64, parentImp float64) (bestGain float64, bestLeft int) {
	n := len(seg)
	var sumL, sumSqL, sumR, sumSqR float64
	for _, r := range seg {
		y := g.y[r]
		sumR += y
		sumSqR += y * y
	}
	v := col[seg[0]]
	for i := 0; i < n-1; i++ {
		y := g.y[seg[i]]
		sumL += y
		sumSqL += y * y
		sumR -= y
		sumSqR -= y * y
		prev := v
		v = col[seg[i+1]]
		if prev == v {
			continue
		}
		nl, nr := float64(i+1), float64(n-i-1)
		if i+1 < g.p.MinSamplesLeaf || n-i-1 < g.p.MinSamplesLeaf {
			continue
		}
		varL := sumSqL/nl - (sumL/nl)*(sumL/nl)
		varR := sumSqR/nr - (sumR/nr)*(sumR/nr)
		imp := (nl*varL + nr*varR) / float64(n)
		if gain := parentImp - imp; gain > bestGain {
			bestGain, bestLeft = gain, i+1
		}
	}
	return bestGain, bestLeft
}

// partition applies the split "the first nl rows of feat's segment go left"
// to node [lo,hi): every other feature's segment, and the node's row list,
// is stable-partitioned so [lo,lo+nl) and [lo+nl,hi) are the children, each
// still in its own sorted order.
func (g *grower) partition(lo, hi, feat, nl int) {
	m := g.m
	seg := m.ord[feat][lo:hi]
	for _, r := range seg[:nl] {
		m.goLeft[r] = true
	}
	for _, r := range seg[nl:] {
		m.goLeft[r] = false
	}
	for f := range m.ord {
		if f != feat {
			m.stablePartition(m.ord[f][lo:hi])
		}
	}
	m.stablePartition(m.rows[lo:hi])
}

func (m *Matrix) stablePartition(seg []int32) {
	l, right := 0, m.tmp[:0]
	for _, r := range seg {
		if m.goLeft[r] {
			seg[l] = r
			l++
		} else {
			right = append(right, r)
		}
	}
	copy(seg[l:], right)
}
