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

import "math"

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
	z := r.state
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

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
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

// Zipf returns a Zipf-distributed integer in [0, n) with exponent s > 0.
// Small ranks are most probable — used to pick which recurring job template
// a user resubmits (a few templates dominate, matching production traces).
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF over the (small) support; n is at most a few thousand in
	// our generators so the linear scan is fine and allocation-free with a
	// running harmonic normalizer would be overkill.
	target := r.Float64() * zipfNorm(n, s)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		if sum >= target {
			return k
		}
	}
	return n - 1
}

func zipfNorm(n int, s float64) float64 {
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
	}
	return sum
}

// Choice returns a random index in [0, len(weights)) with probability
// proportional to weights[i]. Panics if weights is empty or sums to <= 0.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("xrand: Choice needs positive total weight")
	}
	target := r.Float64() * total
	sum := 0.0
	for i, w := range weights {
		sum += w
		if sum >= target {
			return i
		}
	}
	return len(weights) - 1
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
