package textdist

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"repro/internal/xrand"
)

func TestKnownDistances(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"", "abc", 3},
		{"abc", "", 3},
		{"train_v1", "train_v2", 1},
		{"resnet50_imagenet", "resnet18_imagenet", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestUnicode(t *testing.T) {
	if got := Levenshtein("héllo", "hello"); got != 1 {
		t.Fatalf("unicode distance = %d, want 1", got)
	}
}

func TestSymmetryProperty(t *testing.T) {
	check := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityProperty(t *testing.T) {
	check := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	check := func(a, b, c string) bool {
		if len(a) > 30 || len(b) > 30 || len(c) > 30 {
			return true
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityBounds(t *testing.T) {
	if s := Similarity("abc", "abc"); s != 1 {
		t.Fatalf("identical similarity = %v", s)
	}
	if s := Similarity("", ""); s != 1 {
		t.Fatalf("empty similarity = %v", s)
	}
	if s := Similarity("abc", "xyz"); s != 0 {
		t.Fatalf("disjoint similarity = %v", s)
	}
	if s := Similarity("train_v1", "train_v2"); s < 0.8 {
		t.Fatalf("recurring names should be similar: %v", s)
	}
}

// randomString draws n runes from alphabet; a small alphabet makes matches,
// and so the interesting carries of the bit-vector recurrence, frequent.
func randomString(rng *xrand.RNG, n int, alphabet []rune) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// TestLevenshteinMatchesDP holds the dispatching Levenshtein to the dynamic
// program at the lengths around the one-word limit, on ASCII inputs (the
// bit-parallel path when the shorter is ≤ 64) and mixed-Unicode ones (the
// fallback).
func TestLevenshteinMatchesDP(t *testing.T) {
	rng := xrand.New(16)
	lengths := []int{0, 1, 63, 64, 65, 200}
	alphabets := map[string][]rune{
		"ascii-2":  []rune("ab"),
		"ascii-40": []rune("abcdefghijklmnopqrstuvwxyz0123456789-_#."),
		"mixed":    []rune("abé-0ü√日本"),
	}
	for name, alpha := range alphabets {
		for _, la := range lengths {
			for _, lb := range lengths {
				for rep := 0; rep < 8; rep++ {
					a, b := randomString(rng, la, alpha), randomString(rng, lb, alpha)
					if rep%2 == 1 && la > 0 {
						// A near-copy: the distances name bucketing cares about.
						r := []rune(a)
						r[rng.Intn(la)] = alpha[rng.Intn(len(alpha))]
						b = string(r[:min(la, max(lb, 1))])
					}
					if got, want := Levenshtein(a, b), dp(a, b); got != want {
						t.Fatalf("%s: Levenshtein(%q,%q) = %d, DP says %d", name, a, b, got, want)
					}
				}
			}
		}
	}
}

func FuzzLevenshtein(f *testing.F) {
	for _, s := range [][2]string{
		{"", ""}, {"", "abc"}, {"kitten", "sitting"}, {"héllo", "hello"},
		{"vc03-user07-ResNet50-t123-v17", "vc03-user07-ResNet18-t9-v2"},
		{strings.Repeat("a", 64), strings.Repeat("a", 63) + "b"},
		{strings.Repeat("ab", 32) + "c", strings.Repeat("ba", 32)},
		{strings.Repeat("x", 200), strings.Repeat("xy", 32)},
		{"\xff\xfe", "\xff"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 300 || len(b) > 300 {
			return // keeps the quadratic oracle fast
		}
		if got, want := Levenshtein(a, b), dp(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %d, DP says %d", a, b, got, want)
		}
		// Similarity as it was before it took the rune count from the
		// ASCII check: both counts taken, the distance from the DP.
		want := 1.0
		if longest := max(utf8.RuneCountInString(a), utf8.RuneCountInString(b)); longest > 0 {
			want = 1 - float64(dp(a, b))/float64(longest)
		}
		if got := Similarity(a, b); got != want {
			t.Fatalf("Similarity(%q,%q) = %v, the old formula says %v", a, b, got, want)
		}
	})
}

func TestLevenshteinFastPathDoesNotAllocate(t *testing.T) {
	a, b := "vc03-user07-ResNet50-t123-v17", "vc11-user41-BERT-base-t7-v3"
	long := strings.Repeat("resnet-", 40) // only the shorter string is limited to 64
	if n := testing.AllocsPerRun(100, func() {
		sinkInt = Levenshtein(a, b) + Levenshtein(long, b)
		sinkFloat = Similarity(a, b)
	}); n != 0 {
		t.Fatalf("ASCII ≤ 64 path allocates %v times per run", n)
	}
}

var (
	sinkInt   int
	sinkFloat float64
)
