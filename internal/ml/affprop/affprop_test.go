package affprop

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/ml/textdist"
	"repro/internal/xrand"
)

// median is the median off-diagonal similarity, Frey & Dueck's default
// preference, which gives a moderate number of clusters.
func median(s [][]float64) float64 {
	var vals []float64
	for i := range s {
		for j := range s[i] {
			if i != j {
				vals = append(vals, s[i][j])
			}
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// twoBlobSimilarity builds a similarity matrix with two obvious groups.
func twoBlobSimilarity() [][]float64 {
	// Points 0-2 are one blob, 3-5 the other.
	coords := []float64{0, 0.1, 0.2, 10, 10.1, 10.2}
	n := len(coords)
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			d := coords[i] - coords[j]
			s[i][j] = -d * d // negative squared distance, the standard choice
		}
	}
	return s
}

func TestTwoBlobsTwoClusters(t *testing.T) {
	s := twoBlobSimilarity()
	assign := Cluster(s, median(s))
	if len(assign) != 6 {
		t.Fatalf("assignment length %d", len(assign))
	}
	if NumClusters(assign) != 2 {
		t.Fatalf("expected 2 clusters, got %d (%v)", NumClusters(assign), assign)
	}
	// Group membership must respect the blobs.
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("first blob split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Fatalf("second blob split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Fatalf("blobs merged: %v", assign)
	}
}

func TestDegenerateInputs(t *testing.T) {
	if got := Cluster(nil, 0); got != nil {
		t.Fatal("nil input should yield nil")
	}
	if got := Cluster([][]float64{{0}}, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single point: %v", got)
	}
}

func TestJobNameBucketization(t *testing.T) {
	// The §3.5.3 use case: recurring job names cluster together.
	names := []string{
		"train_resnet_v1", "train_resnet_v2", "train_resnet_v3",
		"bert_finetune_a", "bert_finetune_b",
		"dbg",
	}
	n := len(names)
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			s[i][j] = textdist.Similarity(names[i], names[j])
		}
	}
	assign := Cluster(s, median(s))
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("resnet names split: %v", assign)
	}
	if assign[3] != assign[4] {
		t.Fatalf("bert names split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Fatalf("resnet and bert merged: %v", assign)
	}
}

func TestPreferenceControlsGranularity(t *testing.T) {
	s := twoBlobSimilarity()
	// A very high preference makes every point its own exemplar.
	fine := Cluster(s, 10)
	if NumClusters(fine) != len(s) {
		t.Fatalf("high preference should give singleton clusters, got %d", NumClusters(fine))
	}
	// A very low preference collapses everything.
	coarse := Cluster(s, -1e6)
	if NumClusters(coarse) != 1 {
		t.Fatalf("low preference should give one cluster, got %d", NumClusters(coarse))
	}
}

func TestExemplarsAreSelfAssigned(t *testing.T) {
	s := twoBlobSimilarity()
	assign := Cluster(s, median(s))
	for i, e := range assign {
		if assign[e] != e {
			t.Fatalf("point %d assigned to non-exemplar %d (%v)", i, e, assign)
		}
	}
}

// clusterOracle is Cluster as first written: column-major availabilities, a
// separate assignment pass and a fresh assignment slice per iteration. Cluster
// must return exactly its result.
func clusterOracle(s [][]float64, pref float64) []int {
	n := len(s)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}
	damp := damping
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		copy(sim[i], s[i])
		sim[i][i] = pref
	}
	for i := range sim {
		for j := range sim[i] {
			h := uint64(i*2654435761) ^ uint64(j*40503)
			h = (h ^ (h >> 13)) * 0x9e3779b97f4a7c15
			sim[i][j] += (float64(h%1000)/1000 - 0.5) * 1e-7
		}
	}
	r := newMatrix(n)
	a := newMatrix(n)
	assign := func() []int {
		out := make([]int, n)
		for i := 0; i < n; i++ {
			best, bi := negInf, i
			for k := 0; k < n; k++ {
				if v := a[i][k] + r[i][k]; v > best {
					best, bi = v, k
				}
			}
			out[i] = bi
		}
		for i := 0; i < n; i++ {
			e := out[i]
			if out[e] != e {
				out[i] = out[e]
			}
		}
		return out
	}
	var prev []int
	stable := 0
	for iter := 0; iter < maxIter; iter++ {
		for i := 0; i < n; i++ {
			max1, max2 := negInf, negInf
			arg1 := -1
			for k := 0; k < n; k++ {
				v := a[i][k] + sim[i][k]
				if v > max1 {
					max2 = max1
					max1, arg1 = v, k
				} else if v > max2 {
					max2 = v
				}
			}
			for k := 0; k < n; k++ {
				cmp := max1
				if k == arg1 {
					cmp = max2
				}
				nv := sim[i][k] - cmp
				r[i][k] = damp*r[i][k] + (1-damp)*nv
			}
		}
		for k := 0; k < n; k++ {
			sumPos := 0.0
			for i := 0; i < n; i++ {
				if i != k && r[i][k] > 0 {
					sumPos += r[i][k]
				}
			}
			for i := 0; i < n; i++ {
				var nv float64
				if i == k {
					nv = sumPos
				} else {
					v := r[k][k] + sumPos
					if r[i][k] > 0 {
						v -= r[i][k]
					}
					if v > 0 {
						v = 0
					}
					nv = v
				}
				a[i][k] = damp*a[i][k] + (1-damp)*nv
			}
		}
		cur := assign()
		if prev != nil && equal(cur, prev) {
			stable++
			if stable >= stableN {
				return cur
			}
		} else {
			stable = 0
		}
		prev = cur
	}
	return assign()
}

// TestClusterMatchesOracle: Cluster returns the oracle's assignment on
// random similarity matrices whose entries come from five values (symmetric
// at even sizes, as the name buckets' are) and on constant ones, where only
// the jitter separates the entries, so ties are everywhere. It runs under
// the median preference and a low and a high set preference (the latter
// makes self-responsibilities positive).
func TestClusterMatchesOracle(t *testing.T) {
	rng := xrand.New(5)
	sizes := []int{2, 3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 150, 160}
	for _, n := range sizes {
		random, constant := make([][]float64, n), make([][]float64, n)
		for i := range random {
			random[i], constant[i] = make([]float64, n), make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				random[i][j] = float64(rng.Intn(5)) / 4
				random[j][i] = random[i][j]
				if n%2 == 1 {
					random[j][i] = float64(rng.Intn(5)) / 4
				}
				constant[i][j], constant[j][i] = 0.5, 0.5
			}
			random[i][i], constant[i][i] = 1, 1
		}
		for _, s := range [][][]float64{random, constant} {
			for _, p := range []float64{median(s), 0.25, 2, -1} {
				got, want := Cluster(s, p), clusterOracle(s, p)
				if !equal(got, want) {
					t.Fatalf("n=%d preference %g: Cluster = %v, oracle = %v", n, p, got, want)
				}
			}
		}
	}
}

// BenchmarkCluster clusters 150 job-name template bases of the trace
// generator's shape, the duration featurizer's call.
func BenchmarkCluster(b *testing.B) {
	rng := xrand.New(3)
	models := []string{"ResNet50", "BERT-base", "DeepSpeech2", "PointNet", "VGG16"}
	names := make([]string, 150)
	for i := range names {
		names[i] = fmt.Sprintf("vc%02d-user%02d-%s-t%d", rng.Intn(10), rng.Intn(40), models[rng.Intn(len(models))], rng.Intn(300))
	}
	s := make([][]float64, len(names))
	minSim := 1.0
	for i := range s {
		s[i] = make([]float64, len(names))
		for j := range s[i] {
			s[i][j] = textdist.Similarity(names[i], names[j])
			if i != j {
				minSim = min(minSim, s[i][j])
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Cluster(s, minSim)
	}
}

// NumClusters counts distinct exemplars in an assignment.
func NumClusters(assign []int) int {
	seen := map[int]bool{}
	for _, e := range assign {
		seen[e] = true
	}
	return len(seen)
}
