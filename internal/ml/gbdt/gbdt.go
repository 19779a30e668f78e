// Package gbdt implements gradient-boosted regression trees — the stand-in
// for the LightGBM [50] and XGBoost [18] baselines of Table 7. Squared-loss
// boosting with shrinkage and optional row subsampling (stochastic gradient
// boosting), over shallow CART regression trees.
//
// Two preset constructors mirror the paper's two baselines: LightGBMStyle
// (more, shallower, subsampled trees) and XGBoostStyle (fewer, deeper,
// full-sample trees). They are the same algorithm with different defaults,
// which is also true of the originals at the granularity this repository
// needs.
package gbdt

import (
	"fmt"

	"repro/internal/ml/dtree"
	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

// Params configures boosting.
type Params struct {
	NumRounds    int     // boosting iterations (default 100)
	LearningRate float64 // shrinkage (default 0.1)
	MaxDepth     int     // per-tree depth (default 3)
	MinLeaf      int     // min samples per leaf (default 5)
	Subsample    float64 // row-sampling fraction per round (default 1.0)
	seed         uint64  // keys the row sampling; production fits use 0
}

func (p Params) normalized() Params {
	if p.NumRounds <= 0 {
		p.NumRounds = 100
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 3
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 5
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = 1
	}
	return p
}

// LightGBMStyle mimics LightGBM defaults: many shallow trees, leaf-biased,
// stochastic rows.
func LightGBMStyle() Params {
	return Params{NumRounds: 150, LearningRate: 0.1, MaxDepth: 4, MinLeaf: 20, Subsample: 0.8}
}

// XGBoostStyle mimics XGBoost defaults: fewer, deeper, deterministic trees.
func XGBoostStyle() Params {
	return Params{NumRounds: 100, LearningRate: 0.3, MaxDepth: 6, MinLeaf: 1, Subsample: 1}
}

// Model is a trained gradient-boosted ensemble.
type Model struct {
	base  float64
	trees []*dtree.Tree
	lr    float64
}

// Fit trains squared-loss gradient boosting: each round fits a regression
// tree to the current residuals and adds it with shrinkage. The features are
// presorted once (dtree.Matrix) and every round grows its tree on that
// matrix; a subsampled round marks its rows in a reused bag instead of
// copying them.
func Fit(ds *mlmodel.Dataset, p Params) (*Model, error) {
	mx, err := dtree.NewMatrix(ds)
	if err != nil {
		return nil, fmt.Errorf("gbdt: %w", err)
	}
	p = p.normalized()
	rng := xrand.New(p.seed + 0xb005)
	n := ds.Len()

	m := &Model{base: mlmodel.Mean(ds.Y), lr: p.LearningRate, trees: make([]*dtree.Tree, 0, p.NumRounds)}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.base
	}
	resid := make([]float64, n)

	// A subsampled round draws the first k entries of a fresh permutation.
	var perm []int
	var inBag []bool
	k := 0
	if p.Subsample < 1 {
		k = max(1, int(float64(n)*p.Subsample))
		perm, inBag = make([]int, n), make([]bool, n)
	}
	swap := func(i, j int) { perm[i], perm[j] = perm[j], perm[i] }

	tp := dtree.Params{MaxDepth: p.MaxDepth, MinSamplesLeaf: p.MinLeaf}
	for round := 0; round < p.NumRounds; round++ {
		for i := range resid {
			resid[i] = ds.Y[i] - pred[i]
		}
		if inBag != nil {
			for i := range perm {
				perm[i] = i
			}
			rng.Shuffle(n, swap)
			clear(inBag)
			for _, i := range perm[:k] {
				inBag[i] = true
			}
		}
		tr, err := mx.FitRegressor(resid, inBag, tp)
		if err != nil {
			return nil, fmt.Errorf("gbdt: round %d: %w", round, err)
		}
		m.trees = append(m.trees, tr)
		for i, row := range ds.X {
			pred[i] += p.LearningRate * tr.Predict(row)
		}
	}
	return m, nil
}

// Predict evaluates the ensemble on one row.
func (m *Model) Predict(x []float64) float64 {
	s := m.base
	for _, t := range m.trees {
		s += m.lr * t.Predict(x)
	}
	return s
}

var _ mlmodel.Regressor = (*Model)(nil)
