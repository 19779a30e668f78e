// Package forest implements random forests (Breiman 2001, the paper's
// citation [13]) — one of the black-box baselines Lucid's interpretable
// models are compared against in Table 7. Bootstrap-sampled CART trees with
// per-split feature subsampling; regression averages the trees, and
// classification takes a majority vote.
package forest

import (
	"fmt"
	"math"

	"repro/internal/ml/dtree"
	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

// Params configures forest training.
type Params struct {
	NumTrees       int // default 100
	MaxDepth       int // per-tree depth cap (0 = unlimited)
	MinSamplesLeaf int
	MaxFeatures    int // per-split feature subsample; 0 → sqrt(d) for
	// classification, d/3 for regression
	Seed uint64
}

func (p Params) normalized(nf int, classification bool) Params {
	if p.NumTrees <= 0 {
		p.NumTrees = 100
	}
	if p.MaxFeatures <= 0 {
		if classification {
			p.MaxFeatures = int(math.Sqrt(float64(nf)))
		} else {
			p.MaxFeatures = nf / 3
		}
		if p.MaxFeatures < 1 {
			p.MaxFeatures = 1
		}
	}
	return p
}

// Forest is a trained random forest.
type Forest struct {
	trees      []*dtree.Tree
	numClasses int // 0 → regression
}

// FitRegressor trains a regression forest.
func FitRegressor(ds *mlmodel.Dataset, p Params) (*Forest, error) {
	return fit(ds, 0, p)
}

// FitClassifier trains a classification forest on labels in [0, numClasses).
func FitClassifier(ds *mlmodel.Dataset, numClasses int, p Params) (*Forest, error) {
	if numClasses < 2 {
		return nil, fmt.Errorf("forest: need ≥2 classes")
	}
	return fit(ds, numClasses, p)
}

func fit(ds *mlmodel.Dataset, numClasses int, p Params) (*Forest, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("forest: empty dataset")
	}
	// Checked here, not left to the first tree, whose rows are bootstrap
	// positions.
	if err := ds.CheckFinite(); err != nil {
		return nil, fmt.Errorf("forest: %w", err)
	}
	p = p.normalized(ds.NumFeatures(), numClasses > 0)
	rng := xrand.New(p.Seed + 0x5eed)
	f := &Forest{numClasses: numClasses}
	n := ds.Len()
	for t := 0; t < p.NumTrees; t++ {
		treeRNG := rng.Fork()
		// Bootstrap sample with replacement.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = treeRNG.Intn(n)
		}
		boot := ds.Subset(idx)
		tp := dtree.Params{
			MaxDepth:       p.MaxDepth,
			MinSamplesLeaf: p.MinSamplesLeaf,
			MaxFeatures:    p.MaxFeatures,
			RNG:            treeRNG,
		}
		var tr *dtree.Tree
		var err error
		if numClasses > 0 {
			tr, err = dtree.FitClassifier(boot, numClasses, tp)
		} else {
			tr, err = dtree.FitRegressor(boot, tp)
		}
		if err != nil {
			return nil, err
		}
		f.trees = append(f.trees, tr)
	}
	return f, nil
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Predict averages tree predictions (regression) or returns the majority
// class as a float (classification).
func (f *Forest) Predict(x []float64) float64 {
	if f.numClasses > 0 {
		return float64(f.PredictClass(x))
	}
	s := 0.0
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// PredictClass returns the majority vote across trees.
func (f *Forest) PredictClass(x []float64) int {
	votes := make([]float64, f.numClasses)
	for _, t := range f.trees {
		votes[t.PredictClass(x)]++
	}
	best, bi := -1.0, 0
	for i, v := range votes {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

var _ mlmodel.Regressor = (*Forest)(nil)
var _ mlmodel.Classifier = (*Forest)(nil)
