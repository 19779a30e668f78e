// Package affprop implements Affinity Propagation clustering (Frey & Dueck
// 2007, the paper's citation [27]). Lucid uses it to bucketize job names
// whose pairwise Levenshtein similarities are known (§3.5.3): the algorithm
// picks exemplar names by message passing and assigns every other name to
// its nearest exemplar, with no need to choose the cluster count up front.
package affprop

// The message-passing loop's constants.
const (
	damping = 0.7 // responsibility/availability damping
	maxIter = 200 // iteration cap
	stableN = 20  // stop after this many iterations without exemplar change
)

// Cluster runs affinity propagation over a dense similarity matrix
// (s[i][j] = similarity of i to j; higher is more similar) with every
// point's self-similarity set to preference (higher gives more clusters),
// and returns the exemplar index assigned to each point. Points that end up
// their own exemplar are cluster centers. An empty input yields an empty
// result. Similarities must be finite (the caller passes textdist.Similarity
// values).
//
// Every pass walks the matrices row by row. The responsibility pass also
// sums each column's positive responsibilities (rows ascending, the order
// the textbook column loop adds them in), and the availability pass picks
// each row's exemplar as it goes. Both clamp with min and max instead of
// branching on the sign of a message, which the branch predictor cannot
// guess. That is exact, bit for bit: a column sum starts at +0 and only
// grows, so it is never -0, and adding or subtracting the +0 that max(x, 0)
// gives a non-positive x leaves any other value unchanged.
func Cluster(s [][]float64, preference float64) []int {
	n := len(s)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}

	// Working copy with preferences on the diagonal.
	sim := newMatrix(n)
	for i := range sim {
		copy(sim[i], s[i])
		sim[i][i] = preference
		// Degeneracy breaker (Frey & Dueck's standard fix): perfectly
		// symmetric similarities make message passing oscillate between
		// equally good exemplars. A tiny deterministic jitter removes the
		// ties without affecting real structure.
		for j := range sim[i] {
			h := uint64(i*2654435761) ^ uint64(j*40503)
			h = (h ^ (h >> 13)) * 0x9e3779b97f4a7c15
			sim[i][j] += (float64(h%1000)/1000 - 0.5) * 1e-7
		}
	}

	r := newMatrix(n) // responsibilities
	a := newMatrix(n) // availabilities
	sumPos := make([]float64, n)
	diag := make([]float64, n) // r[k][k] after the responsibility pass
	col := make([]float64, n)  // diag[k] + sumPos[k]
	cur, prev := make([]int, n), make([]int, n)
	// A variable, not the constant: 1-damp must be float64 arithmetic's
	// 0.30000000000000004, not the exact 0.3 a constant expression gives.
	damp := damping

	stable := 0
	for iter := 0; iter < maxIter; iter++ {
		clear(sumPos)
		for i := 0; i < n; i++ {
			// Rows resliced to n: the inner loops then run without bounds
			// checks.
			ri := r[i][:n]
			ai, si := a[i][:n], sim[i][:n]
			// Find the top-2 values of a[i][k] + s[i][k].
			max1, max2 := negInf, negInf
			arg1 := -1
			for k := range ai {
				v := ai[k] + si[k]
				if v > max1 {
					max2 = max1
					max1, arg1 = v, k
				} else if v > max2 {
					max2 = v
				}
			}
			for k := range ri {
				cmp := max1
				if k == arg1 {
					cmp = max2
				}
				nv := si[k] - cmp
				rv := damp*ri[k] + (1-damp)*nv
				ri[k] = rv
				if i != k {
					sumPos[k] += max(rv, 0)
				}
			}
			diag[i] = ri[i]
		}
		for k := range col {
			col[k] = diag[k] + sumPos[k]
		}
		for i := 0; i < n; i++ {
			ri, ai, col := r[i][:n], a[i][:n], col[:n]
			best, bi := negInf, i
			for k := range ri {
				nv := min(col[k]-max(ri[k], 0), 0)
				if i == k {
					nv = sumPos[k]
				}
				av := damp*ai[k] + (1-damp)*nv
				ai[k] = av
				if v := av + ri[k]; v > best {
					best, bi = v, k
				}
			}
			cur[i] = bi
		}
		// Make assignments consistent: points assigned to a non-exemplar get
		// re-pointed at that point's own exemplar choice; exemplars point at
		// themselves.
		for i := 0; i < n; i++ {
			if e := cur[i]; cur[e] != e {
				cur[i] = cur[e]
			}
		}

		if iter > 0 && equal(cur, prev) {
			stable++
			if stable >= stableN {
				return cur
			}
		} else {
			stable = 0
		}
		cur, prev = prev, cur
	}
	return prev // the last iteration's assignment
}

const negInf = -1e300

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range m {
		m[i] = buf[i*n : (i+1)*n]
	}
	return m
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
