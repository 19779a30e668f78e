// Package textdist implements the Levenshtein edit distance (Navarro 2001,
// the paper's citation [68]). Lucid's Workload Estimate Model uses it to
// convert "extremely sparse and high-dimensional features like job names" to
// dense numerical values before bucketizing them with affinity propagation
// (§3.5.3) — recurring jobs get near-identical names ("train_v1",
// "train_v2"), so edit distance clusters them.
package textdist

import "unicode/utf8"

// Levenshtein returns the edit distance between a and b in runes (insertions,
// deletions, substitutions all cost 1). Two ASCII strings of which the shorter
// has at most 64 bytes — every job name the trace generator emits — take the
// bit-parallel path: O(longer) word operations and no allocation. Anything
// else takes the O(len(a)·len(b)) dynamic program.
func Levenshtein(a, b string) int {
	d, _ := distance(a, b)
	return d
}

// distance is Levenshtein(a, b) and the longer string's length in runes,
// which is its length in bytes when both are ASCII.
func distance(a, b string) (d, longest int) {
	if len(a) < len(b) {
		a, b = b, a
	}
	if isASCII(a) && isASCII(b) {
		if len(b) <= 64 {
			return bitParallel(a, b), len(a)
		}
		return dp(a, b), len(a)
	}
	return dp(a, b), max(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// bitParallel is the Myers (1999) bit-vector algorithm in Hyyrö's (2003)
// edit-distance form. One DP column over the pattern is held as two words of
// vertical deltas: bit i of pv (mv) is set when cell i is one more (less) than
// cell i-1. Each text byte advances the column with a constant number of word
// operations, and score follows the column's last cell. The pattern must be
// ASCII and at most 64 bytes; text must be ASCII.
func bitParallel(text, pattern string) int {
	m := len(pattern)
	if m == 0 {
		return len(text)
	}
	var peq [utf8.RuneSelf]uint64 // peq[c]: the positions of c in pattern
	for i := 0; i < m; i++ {
		peq[pattern[i]] |= 1 << uint(i)
	}
	pv, mv := ^uint64(0), uint64(0)
	last := uint64(1) << uint(m-1)
	score := m
	for i := 0; i < len(text); i++ {
		eq := peq[text[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1 // row 0 of the table grows by one per text byte
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// dp is the two-row dynamic program over runes: the general path, and the
// oracle the tests hold bitParallel to.
func dp(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Similarity maps distance to [0, 1]: 1 for identical strings, approaching 0
// as the distance reaches the longer length.
func Similarity(a, b string) float64 {
	d, longest := distance(a, b)
	if longest == 0 {
		return 1
	}
	return 1 - float64(d)/float64(longest)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
