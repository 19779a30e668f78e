package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Fork()
	// Parent continues; child must not replay the parent's stream.
	p1 := parent.Uint64()
	c1 := child.Uint64()
	if p1 == c1 {
		t.Fatal("fork replayed parent stream")
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(4)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	r := New(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(42)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-42)/42 > 0.02 {
		t.Fatalf("exponential mean = %v, want ~42", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(12)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(5, 2); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r, z := New(13), NewZipfTable(1.2)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[z.Draw(r, 10)]++
	}
	// Rank 0 must dominate rank 9 by a large factor.
	if counts[0] < 5*counts[9] {
		t.Fatalf("Zipf not skewed: first=%d last=%d", counts[0], counts[9])
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("rank %d never sampled", i)
		}
	}
}

func TestZipfDegenerate(t *testing.T) {
	r, z := New(14), NewZipfTable(1.0)
	before := r.State()
	if z.Draw(r, 1) != 0 {
		t.Fatal("Zipf over n=1 must return 0")
	}
	if z.Draw(r, 0) != 0 {
		t.Fatal("Zipf over n=0 must return 0")
	}
	if r.State() != before {
		t.Fatal("Zipf over n<=1 consumed a draw")
	}
}

func TestChoiceDistribution(t *testing.T) {
	r, c := New(15), NewChoiceTable([]float64{1, 0, 3})
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[c.Draw(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight-3 / weight-1 ratio = %v, want ~3", ratio)
	}
}

func TestChoiceTablePanics(t *testing.T) {
	for _, c := range []struct {
		name    string
		weights []float64
		msg     string
	}{
		{"empty", nil, "xrand: Choice needs positive total weight"},
		{"negative", []float64{1, -1, 2}, "xrand: negative weight"},
		{"-Inf", []float64{1, math.Inf(-1)}, "xrand: negative weight"},
		{"zero total", []float64{0, 0}, "xrand: Choice needs positive total weight"},
		{"NaN", []float64{1, math.NaN(), 2}, "xrand: non-finite weight"},
		{"+Inf", []float64{1, math.Inf(1)}, "xrand: non-finite weight"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != c.msg {
					t.Fatalf("panic %v, want %q", got, c.msg)
				}
			}()
			NewChoiceTable(c.weights)
		})
	}
}

// The oracles: the per-draw samplers the tables replaced.

// Zipf returns a Zipf-distributed integer in [0, n) with exponent s > 0,
// summing the harmonic normalizer and scanning the weights on every draw.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
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

// stateFor returns the state whose next Float64 is u·2⁻⁵³ for an integer
// u < 2⁵³: it runs splitmix64's output mix backwards.
func stateFor(u uint64) uint64 {
	z := u << 11
	z ^= z>>31 ^ z>>62
	z *= 0x319642b2d24d8ec3 // inverse of 0x94d049bb133111eb mod 2⁶⁴
	z ^= z>>27 ^ z>>54
	z *= 0x96de1b173f119089 // inverse of 0xbf58476d1ce4e5b9 mod 2⁶⁴
	z ^= z>>30 ^ z>>60
	return z - 0x9e3779b97f4a7c15
}

func TestStateFor(t *testing.T) {
	for _, u := range []uint64{0, 1, 12345, 1<<52 + 7, 1<<53 - 1} {
		r := New(stateFor(u))
		if got := r.Float64(); got != float64(u)/(1<<53) {
			t.Fatalf("stateFor(%d) draws %v", u, got)
		}
	}
}

// edgeStates returns RNG states whose next draw puts the target on or next
// to each running sum of weights: the uniform draws nearest to the sum's
// share of the total, plus 0 and the largest draw below 1.
func edgeStates(weights []float64) []uint64 {
	const one = 1 << 53
	states := []uint64{stateFor(0), stateFor(one - 1)}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
		u := uint64(sum / total * one)
		for _, v := range []uint64{u - 1, u, u + 1} {
			if v < one {
				states = append(states, stateFor(v))
			}
		}
	}
	return states
}

// TestZipfTableMatchesOracle draws from one table per exponent and from the
// oracle on twin generators, over a support that grows, shrinks and repeats,
// and requires the same rank and the same generator state after every draw.
func TestZipfTableMatchesOracle(t *testing.T) {
	ctl := New(21)
	for _, s := range []float64{0.5, 1, 1.1, 1.2, 2, 3.7} {
		z := NewZipfTable(s)
		a, b := New(uint64(s*1000)), New(uint64(s*1000))
		ns := []int{0, 1, 2, 2, 5, 3, 1, 0, 50, 10, 50, 200, 7, 1000, 999, 1, 2}
		for i := 0; i < 300; i++ {
			switch ctl.Intn(4) {
			case 0: // repeat
				ns = append(ns, ns[len(ns)-1])
			case 1: // small
				ns = append(ns, ctl.Intn(8))
			default:
				ns = append(ns, ctl.Intn(2500))
			}
		}
		check := func(n int) {
			got, want := z.Draw(a, n), b.Zipf(n, s)
			if got != want || a.State() != b.State() {
				t.Fatalf("s=%v n=%d: table drew %d (state %#x), oracle %d (state %#x)",
					s, n, got, a.State(), want, b.State())
			}
		}
		for _, n := range ns {
			check(n)
			if n < 2 || n > 64 {
				continue // the oracle costs O(n) a draw, and edges cost 3n draws
			}
			w := make([]float64, n)
			for k := range w {
				w[k] = 1 / math.Pow(float64(k+1), s)
			}
			for _, st := range edgeStates(w) {
				a.SetState(st)
				b.SetState(st)
				check(n)
			}
		}
	}
}

// TestChoiceTableMatchesOracle compares the table with the oracle on twin
// generators over weight vectors with zeros (leading, trailing and
// interior), subnormals, 1e300:1e-300 ratios and a total that overflows, at
// random draws and at draws that land on the running sums.
func TestChoiceTableMatchesOracle(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	vectors := [][]float64{
		{1},
		{0, 0, 1},
		{1, 0, 0},
		{1, 0, 0, 2, 0, 3},
		{0, 1, 0, 1, 0},
		{sub, sub, 0, 3 * sub},
		{1, sub, 1},
		{1e300, 1e-300, 1e300},
		{1e-300, 1e300, 0, 1e-300},
		{1e-300, 1e-300, 1e-300},
		{1e308, 1e308, 0}, // the total overflows: a zero draw's target is NaN
		{0.55, 0.20, 0.15, 0.10, 0, 0},
		{0.78, 0.10, 0.05, 0.037, 0.020, 0.013},
	}
	ctl := New(22)
	for len(vectors) < 400 {
		w := make([]float64, 1+ctl.Intn(40))
		for i := range w {
			switch ctl.Intn(7) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = sub * float64(1+ctl.Intn(8))
			case 2:
				w[i] = 1e-300 * ctl.Float64()
			case 3:
				w[i] = 1e300 * ctl.Float64()
			case 4:
				w[i] = float64(ctl.Intn(4))
			default:
				w[i] = ctl.Float64()
			}
		}
		vectors = append(vectors, w)
	}
	for vi, w := range vectors {
		total := 0.0
		for _, x := range w {
			total += x
		}
		if total <= 0 {
			continue
		}
		c := NewChoiceTable(w)
		a, b := New(uint64(vi)), New(uint64(vi))
		check := func() {
			got, want := c.Draw(a), b.Choice(w)
			if got != want || a.State() != b.State() {
				t.Fatalf("weights %v: table drew %d (state %#x), oracle %d (state %#x)",
					w, got, a.State(), want, b.State())
			}
		}
		for i := 0; i < 50; i++ {
			check()
		}
		for _, st := range edgeStates(w) {
			a.SetState(st)
			b.SetState(st)
			check()
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeBounds(t *testing.T) {
	check := func(seed uint64) bool {
		v := New(seed).Range(5, 10)
		return v >= 5 && v < 10
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
