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
	r := New(13)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[r.Zipf(10, 1.2)]++
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
	r := New(14)
	if r.Zipf(1, 1.0) != 0 {
		t.Fatal("Zipf(1) must return 0")
	}
	if r.Zipf(0, 1.0) != 0 {
		t.Fatal("Zipf(0) must return 0")
	}
}

func TestChoiceDistribution(t *testing.T) {
	r := New(15)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[r.Choice(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight-3 / weight-1 ratio = %v, want ~3", ratio)
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
