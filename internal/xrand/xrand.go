// Package xrand provides a small, deterministic random-number substrate used
// by every other package in this repository. All simulation and trace
// generation is seeded through xrand so experiment results are reproducible
// bit-for-bit across runs.
//
// The core generator is splitmix64, which is tiny, fast, passes BigCrush for
// the use we put it to, and — unlike math/rand's global state — is trivially
// forkable: every trace, cluster and model gets its own independent stream
// derived from a master seed.
package xrand

import (
	"math"
	"sort"
)

// RNG is a splitmix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; use New to seed explicitly.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// State exposes the generator's internal counter for snapshotting. Together
// with SetState it lets a restored simulation continue the exact random
// stream an interrupted run would have drawn.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator's internal counter (see State).
func (r *RNG) SetState(s uint64) { r.state = s }

// Fork derives an independent generator from this one. The child's stream is
// decorrelated from the parent's by mixing in a large odd constant, so a
// trace generator can hand each subsystem its own stream without the streams
// marching in lockstep.
func (r *RNG) Fork() *RNG {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Mix64 is splitmix64's output function. Used on its own it is a stateless
// 64-bit hash: fault schedules and per-individual streams key their draws by
// coordinates through it instead of by position in a shared sequence.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits → uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the Box–Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed value where the underlying
// normal has parameters mu and sigma. DL job durations are famously
// heavy-tailed; lognormal is the standard stand-in.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Exp returns an exponentially distributed value with the given mean
// (i.e. rate 1/mean). Used for Poisson inter-arrival gaps.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ZipfTable draws Zipf-distributed ranks in [0, n) with exponent s > 0:
// rank k has weight 1/(k+1)^s, so small ranks are most probable. It picks
// which recurring job template a user resubmits (a few templates dominate,
// matching production traces). The table keeps the running sums of the
// weights and extends them when a draw asks for a larger n, so a draw over
// any prefix of the support is one uniform draw and a binary search. A draw
// may extend the table, so one table serves one goroutine.
type ZipfTable struct {
	s   float64
	cum []float64 // cum[k] = Σ_{i≤k} 1/(i+1)^s, added in rank order
}

// NewZipfTable returns an empty table for exponent s.
func NewZipfTable(s float64) *ZipfTable { return &ZipfTable{s: s} }

// Draw returns a rank in [0, n). n ≤ 1 returns 0 without drawing from r.
func (z *ZipfTable) Draw(r *RNG, n int) int {
	if n <= 1 {
		return 0
	}
	for k := len(z.cum); k < n; k++ {
		sum := 0.0
		if k > 0 {
			sum = z.cum[k-1]
		}
		z.cum = append(z.cum, sum+1/math.Pow(float64(k+1), z.s))
	}
	cum := z.cum[:n]
	return search(cum, r.Float64()*cum[n-1])
}

// ChoiceTable draws an index in [0, len(weights)) with probability
// proportional to weights[i], from running sums built once.
type ChoiceTable struct {
	cum []float64
}

// NewChoiceTable builds the table over weights. It panics if a weight is
// negative, NaN or infinite, or if weights is empty or sums to <= 0.
func NewChoiceTable(weights []float64) *ChoiceTable {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		total += w
		cum[i] = total
	}
	if len(weights) == 0 || total <= 0 {
		panic("xrand: Choice needs positive total weight")
	}
	// A NaN leaves the running sums unordered, so the search would not stop
	// where a scan does; an infinite weight is no probability.
	for _, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			panic("xrand: non-finite weight")
		}
	}
	return &ChoiceTable{cum: cum}
}

// Draw returns an index drawn with one r.Float64().
func (c *ChoiceTable) Draw(r *RNG) int {
	return search(c.cum, r.Float64()*c.cum[len(c.cum)-1])
}

// search returns the first index whose running sum reaches target, which is
// where a scan adding the weights in order stops, or the last index when no
// sum does (a NaN target).
func search(cum []float64, target float64) int {
	return min(sort.SearchFloat64s(cum, target), len(cum)-1)
}

// Shuffle permutes the first n elements using the provided swap function
// (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
