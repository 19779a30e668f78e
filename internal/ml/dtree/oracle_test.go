package dtree

import (
	"sort"

	"repro/internal/ml/mlmodel"
)

// oracleBuilder is the naive CART grower the presorted one replaced: it
// re-sorts the node's rows for every feature at every node. It survives here
// as the reference the differential tests compare against. Its sort is
// stable over rows kept in ascending index, which is the determinism
// contract of Matrix spelled out the slow way.
type oracleBuilder struct {
	ds         *mlmodel.Dataset
	p          Params
	numClasses int // 0 → regression
}

// oracleFit grows a tree on ds with the naive builder; numClasses 0 means
// regression.
func oracleFit(ds *mlmodel.Dataset, numClasses int, p Params) *Tree {
	b := &oracleBuilder{ds: ds, p: p.normalized(), numClasses: numClasses}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	return &Tree{root: b.build(idx, 0), numClasses: numClasses, names: ds.Names, totalRows: ds.Len()}
}

func (b *oracleBuilder) leaf(idx []int) *node {
	n := &node{feature: -1, nSamples: len(idx)}
	if b.numClasses > 0 {
		n.counts = make([]float64, b.numClasses)
		for _, i := range idx {
			n.counts[int(b.ds.Y[i])]++
		}
		n.impurity = gini(n.counts, float64(len(idx)))
		n.class = argmax(n.counts)
		n.value = float64(n.class)
	} else {
		sum := 0.0
		for _, i := range idx {
			sum += b.ds.Y[i]
		}
		mean := sum / float64(len(idx))
		v := 0.0
		for _, i := range idx {
			d := b.ds.Y[i] - mean
			v += d * d
		}
		n.value = mean
		n.impurity = v / float64(len(idx))
	}
	return n
}

func (b *oracleBuilder) build(idx []int, depth int) *node {
	n := b.leaf(idx)
	if len(idx) < 2 || n.impurity == 0 {
		return n
	}
	if b.p.MaxDepth > 0 && depth >= b.p.MaxDepth {
		return n
	}
	feat, thr, gain := b.bestSplit(idx, n.impurity)
	if feat < 0 || gain <= 1e-12 {
		return n
	}
	var li, ri []int
	for _, i := range idx {
		if b.ds.X[i][feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) < b.p.MinSamplesLeaf || len(ri) < b.p.MinSamplesLeaf {
		panic("oracle: the threshold moved rows across the cut the scan chose")
	}
	n.feature = feat
	n.threshold = thr
	n.left = b.build(li, depth+1)
	n.right = b.build(ri, depth+1)
	return n
}

func (b *oracleBuilder) bestSplit(idx []int, parentImp float64) (feat int, thr, gain float64) {
	nf := b.ds.NumFeatures()
	feats := make([]int, nf)
	for i := range feats {
		feats[i] = i
	}
	if b.p.MaxFeatures > 0 && b.p.MaxFeatures < nf && b.p.RNG != nil {
		b.p.RNG.Shuffle(nf, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:b.p.MaxFeatures]
	}

	feat = -1
	order := make([]int, len(idx))
	for _, f := range feats {
		copy(order, idx)
		sort.SliceStable(order, func(i, j int) bool { return b.ds.X[order[i]][f] < b.ds.X[order[j]][f] })
		g, t, ok := b.scanFeature(order, f, parentImp)
		if ok && g > gain {
			gain, thr, feat = g, t, f
		}
	}
	return feat, thr, gain
}

func (b *oracleBuilder) scanFeature(order []int, f int, parentImp float64) (bestGain, bestThr float64, ok bool) {
	n := len(order)
	if b.numClasses > 0 {
		left := make([]float64, b.numClasses)
		right := make([]float64, b.numClasses)
		for _, i := range order {
			right[int(b.ds.Y[i])]++
		}
		for i := 0; i < n-1; i++ {
			c := int(b.ds.Y[order[i]])
			left[c]++
			right[c]--
			if b.ds.X[order[i]][f] == b.ds.X[order[i+1]][f] {
				continue // cannot split between equal values
			}
			nl, nr := float64(i+1), float64(n-i-1)
			if int(nl) < b.p.MinSamplesLeaf || int(nr) < b.p.MinSamplesLeaf {
				continue
			}
			imp := (nl*gini(left, nl) + nr*gini(right, nr)) / float64(n)
			if g := parentImp - imp; g > bestGain {
				bestGain = g
				bestThr = midpoint(b.ds.X[order[i]][f], b.ds.X[order[i+1]][f])
				ok = true
			}
		}
		return bestGain, bestThr, ok
	}

	// Regression: running sums for O(1) variance updates.
	var sumL, sumSqL, sumR, sumSqR float64
	for _, i := range order {
		y := b.ds.Y[i]
		sumR += y
		sumSqR += y * y
	}
	for i := 0; i < n-1; i++ {
		y := b.ds.Y[order[i]]
		sumL += y
		sumSqL += y * y
		sumR -= y
		sumSqR -= y * y
		if b.ds.X[order[i]][f] == b.ds.X[order[i+1]][f] {
			continue
		}
		nl, nr := float64(i+1), float64(n-i-1)
		if int(nl) < b.p.MinSamplesLeaf || int(nr) < b.p.MinSamplesLeaf {
			continue
		}
		varL := sumSqL/nl - (sumL/nl)*(sumL/nl)
		varR := sumSqR/nr - (sumR/nr)*(sumR/nr)
		imp := (nl*varL + nr*varR) / float64(n)
		if g := parentImp - imp; g > bestGain {
			bestGain = g
			bestThr = midpoint(b.ds.X[order[i]][f], b.ds.X[order[i+1]][f])
			ok = true
		}
	}
	return bestGain, bestThr, ok
}
