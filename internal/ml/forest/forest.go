// Package forest implements random forests (Breiman 2001, the paper's
// citation [13]) — one of the black-box baselines Lucid's interpretable
// models are compared against in Table 7. Bootstrap-sampled CART regression
// trees with per-split feature subsampling, averaged.
package forest

import (
	"fmt"

	"repro/internal/ml/dtree"
	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

// Params configures forest training. Each split samples a third of the
// features (at least one), and leaves keep dtree's minimum of one row.
type Params struct {
	NumTrees int // default 100
	MaxDepth int // per-tree depth cap (0 = unlimited)
	Seed     uint64
}

// Forest is a trained random forest.
type Forest struct {
	trees []*dtree.Tree
}

// FitRegressor trains a regression forest.
func FitRegressor(ds *mlmodel.Dataset, p Params) (*Forest, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("forest: empty dataset")
	}
	// Checked here, not left to the first tree, whose rows are bootstrap
	// positions.
	if err := ds.CheckFinite(); err != nil {
		return nil, fmt.Errorf("forest: %w", err)
	}
	if p.NumTrees <= 0 {
		p.NumTrees = 100
	}
	maxFeatures := max(1, ds.NumFeatures()/3)
	rng := xrand.New(p.Seed + 0x5eed)
	f := &Forest{}
	n := ds.Len()
	for t := 0; t < p.NumTrees; t++ {
		treeRNG := rng.Fork()
		// Bootstrap sample with replacement.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = treeRNG.Intn(n)
		}
		boot := ds.Subset(idx)
		tp := dtree.Params{MaxDepth: p.MaxDepth, MaxFeatures: maxFeatures, RNG: treeRNG}
		tr, err := dtree.FitRegressor(boot, tp)
		if err != nil {
			return nil, err
		}
		f.trees = append(f.trees, tr)
	}
	return f, nil
}

// Predict averages the trees' predictions.
func (f *Forest) Predict(x []float64) float64 {
	s := 0.0
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

var _ mlmodel.Regressor = (*Forest)(nil)
