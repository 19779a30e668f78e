// Package dtree implements CART decision trees — the model behind Lucid's
// Packing Analyze Model (§3.5.1, Figure 6). Classification trees split on
// Gini impurity, regression trees on variance. Minimal cost-complexity
// pruning (Breiman et al. 1984, the paper's citation [14]) compacts the
// learned tree, Gini feature importances reproduce the right panel of
// Figure 6, and Render prints the tree itself — the interpretability story.
package dtree

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

// Params controls tree growth.
type Params struct {
	MaxDepth       int // 0 means unlimited
	MinSamplesLeaf int // minimum rows per leaf (≥1)

	// MaxFeatures, when >0, samples that many candidate features per split
	// (random-forest style). Requires RNG.
	MaxFeatures int
	RNG         *xrand.RNG
}

func (p Params) normalized() Params {
	if p.MinSamplesLeaf < 1 {
		p.MinSamplesLeaf = 1
	}
	return p
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node

	// Leaf payload / node statistics.
	nSamples int
	impurity float64   // Gini (classification) or variance (regression)
	value    float64   // regression mean
	counts   []float64 // classification class histogram (nil for regression)
	class    int       // majority class
}

func (n *node) isLeaf() bool { return n.feature < 0 }

// Tree is a trained CART tree usable as a classifier or regressor depending
// on how it was fit.
type Tree struct {
	root       *node
	numClasses int // 0 for regression
	names      []string
	totalRows  int
}

// FitClassifier grows a classification tree on integer labels in
// [0, numClasses).
func FitClassifier(ds *mlmodel.Dataset, numClasses int, p Params) (*Tree, error) {
	if numClasses < 2 {
		return nil, fmt.Errorf("dtree: need ≥2 classes, got %d", numClasses)
	}
	m, err := NewMatrix(ds)
	if err != nil {
		return nil, err
	}
	for i, y := range ds.Y {
		c := int(y)
		if float64(c) != y || c < 0 || c >= numClasses {
			return nil, fmt.Errorf("dtree: row %d label %v not an int in [0,%d)", i, y, numClasses)
		}
	}
	return m.fit(ds.Y, nil, numClasses, p)
}

// FitRegressor grows a regression tree.
func FitRegressor(ds *mlmodel.Dataset, p Params) (*Tree, error) {
	m, err := NewMatrix(ds)
	if err != nil {
		return nil, err
	}
	return m.FitRegressor(ds.Y, nil, p)
}

func gini(counts []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / total
		g -= p * p
	}
	return g
}

func argmax(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range xs {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// Predict returns the regression prediction (or the majority class as a
// float for classification trees).
func (t *Tree) Predict(x []float64) float64 {
	n := t.descend(x)
	if t.numClasses > 0 {
		return float64(n.class)
	}
	return n.value
}

// PredictClass returns the majority class at the reached leaf.
func (t *Tree) PredictClass(x []float64) int { return t.descend(x).class }

func (t *Tree) descend(x []float64) *node {
	n := t.root
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// FeatureImportances returns normalized Gini/variance importances (they sum
// to 1 unless the tree is a single leaf) — the right panel of Figure 6.
func (t *Tree) FeatureImportances() []float64 {
	nf := 0
	if t.names != nil {
		nf = len(t.names)
	} else {
		nf = maxFeature(t.root) + 1
	}
	imp := make([]float64, nf)
	total := float64(t.totalRows)
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			return
		}
		nd := float64(n.nSamples)
		if n.nSamples == 0 {
			nd = float64(n.left.nSamples + n.right.nSamples)
		}
		nl, nr := float64(n.left.nSamples), float64(n.right.nSamples)
		gain := nd*n.impurity - nl*n.left.impurity - nr*n.right.impurity
		if gain > 0 {
			imp[n.feature] += gain / total
		}
		walk(n.left)
		walk(n.right)
	}
	// Root nSamples was set by leaf(); internal nodes keep their stats
	// because build() mutates the leaf node into an internal one.
	walk(t.root)
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if sum > 0 {
		for i := range imp {
			imp[i] /= sum
		}
	}
	return imp
}

func maxFeature(n *node) int {
	if n.isLeaf() {
		return -1
	}
	m := n.feature
	if l := maxFeature(n.left); l > m {
		m = l
	}
	if r := maxFeature(n.right); r > m {
		m = r
	}
	return m
}

// PruneCCP applies minimal cost-complexity pruning: every internal node
// whose effective alpha g(t) = (R(t) − R(T_t)) / (|leaves(T_t)| − 1) is at
// most alpha collapses to a leaf, weakest links first. R uses
// sample-weighted impurity. alpha = 0 only removes splits that do not reduce
// risk at all.
func (t *Tree) PruneCCP(alpha float64) {
	for {
		weakest, g := weakestLink(t.root, float64(t.totalRows))
		if weakest == nil || g > alpha {
			return
		}
		collapse(weakest)
	}
}

// weakestLink finds the internal node with the smallest effective alpha.
func weakestLink(root *node, total float64) (*node, float64) {
	var best *node
	bestG := math.Inf(1)
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			return
		}
		rNode := float64(n.nSamples) / total * n.impurity
		rSub, leaves := subtreeRisk(n, total)
		if leaves > 1 {
			g := (rNode - rSub) / float64(leaves-1)
			if g < bestG {
				bestG, best = g, n
			}
		}
		walk(n.left)
		walk(n.right)
	}
	walk(root)
	return best, bestG
}

func subtreeRisk(n *node, total float64) (risk float64, leaves int) {
	if n.isLeaf() {
		return float64(n.nSamples) / total * n.impurity, 1
	}
	rl, ll := subtreeRisk(n.left, total)
	rr, lr := subtreeRisk(n.right, total)
	return rl + rr, ll + lr
}

// collapse turns an internal node into a leaf using its stored statistics.
func collapse(n *node) {
	if n.isLeaf() {
		return
	}
	if n.counts == nil && n.left.counts != nil {
		// Classification: merge child histograms.
		n.counts = make([]float64, len(n.left.counts))
	}
	if n.counts != nil {
		mergeCounts(n)
		n.class = argmax(n.counts)
		n.value = float64(n.class)
	}
	n.feature = -1
	n.left, n.right = nil, nil
}

func mergeCounts(n *node) {
	for i := range n.counts {
		n.counts[i] = 0
	}
	var add func(c *node)
	add = func(c *node) {
		if c == nil {
			return
		}
		if c.isLeaf() {
			for i, v := range c.counts {
				n.counts[i] += v
			}
			return
		}
		add(c.left)
		add(c.right)
	}
	add(n.left)
	add(n.right)
}

// Render prints the tree in the style of Figure 6: one line per node,
// internal nodes show "feature ≤ threshold", leaves show the class (or
// value) with sample counts.
func (t *Tree) Render(classNames []string) string {
	var sb strings.Builder
	var walk func(n *node, prefix string, isLast bool)
	walk = func(n *node, prefix string, isLast bool) {
		connector := "├─ "
		childPrefix := prefix + "│  "
		if isLast {
			connector = "└─ "
			childPrefix = prefix + "   "
		}
		if prefix == "" {
			connector = ""
			childPrefix = ""
		}
		if n.isLeaf() {
			label := fmt.Sprintf("%.3f", n.value)
			if t.numClasses > 0 {
				if classNames != nil && n.class < len(classNames) {
					label = classNames[n.class]
				} else {
					label = fmt.Sprintf("class %d", n.class)
				}
			}
			fmt.Fprintf(&sb, "%s%s→ %s (n=%d, impurity=%.3f)\n", prefix, connector, label, n.nSamples, n.impurity)
			return
		}
		name := fmt.Sprintf("f%d", n.feature)
		if t.names != nil && n.feature < len(t.names) {
			name = t.names[n.feature]
		}
		fmt.Fprintf(&sb, "%s%s%s ≤ %.2f? (n=%d)\n", prefix, connector, name, n.threshold, n.nSamples)
		walk(n.left, childPrefix, false)
		walk(n.right, childPrefix, true)
	}
	walk(t.root, "", true)
	return sb.String()
}

var _ mlmodel.Regressor = (*Tree)(nil)
