package feat

import (
	"maps"
	"math"
	"slices"

	"repro/internal/ml/textdist"
)

// lineage is the name-similarity work a featurizer hands its successor
// along an estimator's lineage of refits (Refit). The top template bases
// and the exemplars change little from one refit to the next, so a refit
// computes Levenshtein only for the pairs its predecessors never needed.
//
// A lineage is read-only once its featurizer is published: Models.Clone
// shares one featurizer across concurrent scheduler runs, and each run's
// next Refit extends it. extend copies the tables a refit writes, and a
// cached row is copied before a missing entry is filled, so two refits of
// one parent never see each other's ids or entries.
type lineage struct {
	ids   map[string]int32 // base intern table; an id is never reassigned
	bases []string         // bases[id]

	// The top-k similarity matrix's cache. A base gets a rank the first
	// time it is among the top k; pairs[r][q], q < r, is the Similarity of
	// the bases ranked r and q. Similarity is symmetric and 1 on the
	// diagonal, so one triangle holds the matrix.
	rank   []int32 // by base id; -1 if never ranked
	ranked []int32 // base id by rank
	pairs  [][]float64

	// The nearest-exemplar cache. Every exemplar seen along the lineage
	// gets a sequence number; toEx[id][x] is the Similarity of base id to
	// exemplar x.
	exSeq     []int32 // by base id; -1 if never an exemplar
	exemplars []int32 // base id by sequence number
	toEx      [][]float64

	slab []float64 // unused row cells of the current refit's allocation
}

// extend returns the lineage a refit of l's featurizer builds on: l's ids
// and cached rows, in tables of its own. A nil l starts a new lineage.
func (l *lineage) extend() *lineage {
	if l == nil {
		return &lineage{ids: map[string]int32{}}
	}
	return &lineage{
		ids:       maps.Clone(l.ids),
		bases:     slices.Clip(l.bases),
		rank:      slices.Clone(l.rank),
		ranked:    slices.Clip(l.ranked),
		pairs:     slices.Clone(l.pairs),
		exSeq:     slices.Clone(l.exSeq),
		exemplars: slices.Clip(l.exemplars),
		toEx:      slices.Clone(l.toEx),
	}
}

// intern returns base's id, adding it if the lineage has not seen it.
func (l *lineage) intern(base string) int32 {
	if id, ok := l.ids[base]; ok {
		return id
	}
	id := int32(len(l.bases))
	l.ids[base] = id
	l.bases = append(l.bases, base)
	l.rank = append(l.rank, -1)
	l.exSeq = append(l.exSeq, -1)
	l.toEx = append(l.toEx, nil)
	return id
}

// staleFactor bounds the caches along a long lineage: once the pair cache
// has ranked staleFactor times as many bases as the top k holds, or the
// exemplar cache seen staleFactor times the current exemplars, it starts
// afresh (one cold refit's Levenshtein calls) rather than keep growing.
const staleFactor = 4

// topSimilarities returns the Similarity matrix of the top bases, in their
// order, with 1 on the diagonal.
func (l *lineage) topSimilarities(top []int32) [][]float64 {
	if len(l.ranked) > staleFactor*len(top) {
		l.ranked, l.pairs = nil, nil
		fillInt32(l.rank, -1)
	}
	ranks := make([]int32, len(top))
	for i, b := range top {
		if l.rank[b] < 0 {
			l.rank[b] = int32(len(l.ranked))
			l.ranked = append(l.ranked, b)
			l.pairs = append(l.pairs, nil)
		}
		ranks[i] = l.rank[b]
	}
	// Row r needs every lower rank among the top bases.
	asc := slices.Clone(ranks)
	slices.Sort(asc)
	for i, r := range asc {
		l.pairs[r] = l.fill(l.pairs[r], int(r), asc[:i], l.bases[l.ranked[r]], l.ranked)
	}
	k := len(top)
	sim := make([][]float64, k)
	cells := make([]float64, k*k)
	for i := range sim {
		sim[i] = cells[i*k : (i+1)*k]
		sim[i][i] = 1
		for j := 0; j < i; j++ {
			hi, lo := max(ranks[i], ranks[j]), min(ranks[i], ranks[j])
			sim[i][j] = l.pairs[hi][lo]
			sim[j][i] = sim[i][j]
		}
	}
	return sim
}

// nearestExemplars returns, for each base, the index of its most similar
// exemplar (the first on a tie), as bucketOf would.
func (l *lineage) nearestExemplars(bases, exemplars []int32) []int {
	if len(l.exemplars) > staleFactor*len(exemplars) {
		l.exemplars = nil
		fillInt32(l.exSeq, -1)
		clear(l.toEx)
	}
	seqs := make([]int32, len(exemplars))
	for i, e := range exemplars {
		if l.exSeq[e] < 0 {
			l.exSeq[e] = int32(len(l.exemplars))
			l.exemplars = append(l.exemplars, e)
		}
		seqs[i] = l.exSeq[e]
	}
	nearest := make([]int, len(bases))
	for n, b := range bases {
		row := l.fill(l.toEx[b], len(l.exemplars), seqs, l.bases[b], l.exemplars)
		l.toEx[b] = row
		best := -1.0
		for i, x := range seqs {
			if s := row[x]; s > best {
				best, nearest[n] = s, i
			}
		}
	}
	return nearest
}

// fill returns row with row[q] = Similarity(base, bases[to[q]]) for every q
// in need. row is returned as is when it has them all; otherwise the entries
// go into a copy of width cells (NaN where never computed), so a row shared
// with a published lineage is never written.
func (l *lineage) fill(row []float64, width int, need []int32, base string, to []int32) []float64 {
	i := 0
	for i < len(need) && int(need[i]) < len(row) && !math.IsNaN(row[need[i]]) {
		i++
	}
	if i == len(need) {
		return row
	}
	if len(l.slab) < width {
		l.slab = make([]float64, max(width, 4096))
	}
	out := l.slab[:width:width]
	l.slab = l.slab[width:]
	for c := copy(out, row); c < width; c++ {
		out[c] = math.NaN()
	}
	for _, q := range need[i:] {
		if math.IsNaN(out[q]) {
			out[q] = textdist.Similarity(base, l.bases[to[q]])
		}
	}
	return out
}

func fillInt32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}
