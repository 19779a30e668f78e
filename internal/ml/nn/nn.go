// Package nn implements a small fully-connected neural network regressor —
// the "DNN" baseline of Table 7 in the Lucid paper. Two hidden ReLU layers
// trained with Adam on mini-batches of squared loss, with per-feature input
// standardization so raw trace features (seconds, GPU counts, hour-of-day)
// coexist.
package nn

import (
	"fmt"
	"math"

	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

// The network's shape, step size and mini-batch size.
const (
	hidden1   = 64   // first hidden width
	hidden2   = 32   // second hidden width
	lr        = 1e-3 // Adam learning rate
	batchSize = 32
)

// Params configures the MLP.
type Params struct {
	Epochs int // passes over the data (default 50)
	Seed   uint64
}

// Model is a trained MLP regressor.
type Model struct {
	w1, w2, w3  []float64 // weight matrices, row-major
	b1, b2, b3  []float64
	d, h1, h2   int
	mean, std   []float64 // input standardization
	yMean, yStd float64   // target standardization
}

// adam holds optimizer state for one parameter vector.
type adam struct {
	m, v []float64
	t    int
}

func newAdam(n int) *adam { return &adam{m: make([]float64, n), v: make([]float64, n)} }

func (a *adam) step(w, g []float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	a.t++
	bc1 := 1 - math.Pow(beta1, float64(a.t))
	bc2 := 1 - math.Pow(beta2, float64(a.t))
	for i := range w {
		a.m[i] = beta1*a.m[i] + (1-beta1)*g[i]
		a.v[i] = beta2*a.v[i] + (1-beta2)*g[i]*g[i]
		w[i] -= lr * (a.m[i] / bc1) / (math.Sqrt(a.v[i]/bc2) + eps)
	}
}

// Fit trains the MLP.
func Fit(ds *mlmodel.Dataset, p Params) (*Model, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("nn: empty dataset")
	}
	if p.Epochs <= 0 {
		p.Epochs = 50
	}
	rng := xrand.New(p.Seed + 0xd33d)
	d := ds.NumFeatures()
	m := &Model{d: d, h1: hidden1, h2: hidden2}
	m.standardize(ds)

	// He initialization.
	initLayer := func(fanIn, fanOut int) []float64 {
		w := make([]float64, fanIn*fanOut)
		s := math.Sqrt(2 / float64(fanIn))
		for i := range w {
			w[i] = rng.Norm(0, s)
		}
		return w
	}
	m.w1 = initLayer(d, m.h1)
	m.b1 = make([]float64, m.h1)
	m.w2 = initLayer(m.h1, m.h2)
	m.b2 = make([]float64, m.h2)
	m.w3 = initLayer(m.h2, 1)
	m.b3 = make([]float64, 1)

	optW1, optB1 := newAdam(len(m.w1)), newAdam(len(m.b1))
	optW2, optB2 := newAdam(len(m.w2)), newAdam(len(m.b2))
	optW3, optB3 := newAdam(len(m.w3)), newAdam(len(m.b3))

	gw1 := make([]float64, len(m.w1))
	gb1 := make([]float64, len(m.b1))
	gw2 := make([]float64, len(m.w2))
	gb2 := make([]float64, len(m.b2))
	gw3 := make([]float64, len(m.w3))
	gb3 := make([]float64, len(m.b3))

	x := make([]float64, d)
	z1 := make([]float64, m.h1)
	a1 := make([]float64, m.h1)
	z2 := make([]float64, m.h2)
	a2 := make([]float64, m.h2)
	d1 := make([]float64, m.h1)
	d2 := make([]float64, m.h2)

	n := ds.Len()
	for epoch := 0; epoch < p.Epochs; epoch++ {
		perm := rng.Perm(n)
		for start := 0; start < n; start += batchSize {
			end := start + batchSize
			if end > n {
				end = n
			}
			bs := float64(end - start)
			zero(gw1)
			zero(gb1)
			zero(gw2)
			zero(gb2)
			zero(gw3)
			zero(gb3)
			for _, pi := range perm[start:end] {
				m.normIn(ds.X[pi], x)
				yTrue := (ds.Y[pi] - m.yMean) / m.yStd

				// Forward.
				matVec(m.w1, x, m.b1, z1, m.h1, d)
				relu(z1, a1)
				matVec(m.w2, a1, m.b2, z2, m.h2, m.h1)
				relu(z2, a2)
				out := m.b3[0]
				for j := 0; j < m.h2; j++ {
					out += m.w3[j] * a2[j]
				}

				// Backward (squared loss).
				dOut := 2 * (out - yTrue) / bs
				gb3[0] += dOut
				for j := 0; j < m.h2; j++ {
					gw3[j] += dOut * a2[j]
					d2[j] = dOut * m.w3[j]
					if z2[j] <= 0 {
						d2[j] = 0
					}
				}
				for j := 0; j < m.h2; j++ {
					gb2[j] += d2[j]
					for k := 0; k < m.h1; k++ {
						gw2[j*m.h1+k] += d2[j] * a1[k]
					}
				}
				for k := 0; k < m.h1; k++ {
					s := 0.0
					for j := 0; j < m.h2; j++ {
						s += d2[j] * m.w2[j*m.h1+k]
					}
					if z1[k] <= 0 {
						s = 0
					}
					d1[k] = s
				}
				for k := 0; k < m.h1; k++ {
					gb1[k] += d1[k]
					for q := 0; q < d; q++ {
						gw1[k*d+q] += d1[k] * x[q]
					}
				}
			}
			optW1.step(m.w1, gw1)
			optB1.step(m.b1, gb1)
			optW2.step(m.w2, gw2)
			optB2.step(m.b2, gb2)
			optW3.step(m.w3, gw3)
			optB3.step(m.b3, gb3)
		}
	}
	return m, nil
}

func (m *Model) standardize(ds *mlmodel.Dataset) {
	d := m.d
	m.mean = make([]float64, d)
	m.std = make([]float64, d)
	n := float64(ds.Len())
	for _, row := range ds.X {
		for j, v := range row {
			m.mean[j] += v
		}
	}
	for j := range m.mean {
		m.mean[j] /= n
	}
	for _, row := range ds.X {
		for j, v := range row {
			dv := v - m.mean[j]
			m.std[j] += dv * dv
		}
	}
	for j := range m.std {
		m.std[j] = math.Sqrt(m.std[j] / n)
		if m.std[j] < 1e-9 {
			m.std[j] = 1
		}
	}
	m.yMean = mlmodel.Mean(ds.Y)
	m.yStd = math.Sqrt(mlmodel.Variance(ds.Y))
	if m.yStd < 1e-9 {
		m.yStd = 1
	}
}

func (m *Model) normIn(raw, out []float64) {
	for j := range out {
		out[j] = (raw[j] - m.mean[j]) / m.std[j]
	}
}

func matVec(w, x, b, out []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		s := b[r]
		base := r * cols
		for c := 0; c < cols; c++ {
			s += w[base+c] * x[c]
		}
		out[r] = s
	}
}

func relu(in, out []float64) {
	for i, v := range in {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// Predict evaluates the network on one raw feature row.
func (m *Model) Predict(raw []float64) float64 {
	x := make([]float64, m.d)
	m.normIn(raw, x)
	z1 := make([]float64, m.h1)
	matVec(m.w1, x, m.b1, z1, m.h1, m.d)
	relu(z1, z1)
	z2 := make([]float64, m.h2)
	matVec(m.w2, z1, m.b2, z2, m.h2, m.h1)
	relu(z2, z2)
	out := m.b3[0]
	for j := 0; j < m.h2; j++ {
		out += m.w3[j] * z2[j]
	}
	return out*m.yStd + m.yMean
}

var _ mlmodel.Regressor = (*Model)(nil)
