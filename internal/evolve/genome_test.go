package evolve

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestDefaultGenomeValid(t *testing.T) {
	g := DefaultGenome()
	if err := g.Validate(); err != nil {
		t.Fatalf("default genome invalid: %v", err)
	}
}

func TestGenomeStringRoundTrip(t *testing.T) {
	// The default, every single-gene extreme, and random points must all
	// survive String → ParseGenomeSpec unchanged.
	cases := []Genome{DefaultGenome()}
	for i := range Genes {
		lo, hi := DefaultGenome(), DefaultGenome()
		lo[i], hi[i] = Genes[i].Min, Genes[i].Max
		cases = append(cases, lo.repair(), hi.repair())
	}
	for k := 0; k < 50; k++ {
		cases = append(cases, randomGenome(rngFor(99, k, 0)))
	}
	for _, g := range cases {
		if err := g.Validate(); err != nil {
			t.Fatalf("case genome invalid: %v (%s)", err, g)
		}
		back, err := ParseGenomeSpec(g.String())
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", g.String(), err)
		}
		if back != g {
			t.Fatalf("round trip diverged: %s != %s", back, g)
		}
	}
}

func TestParseGenomeSpecDefaults(t *testing.T) {
	for _, text := range []string{"", "default", " default "} {
		g, err := ParseGenomeSpec(text)
		if err != nil {
			t.Fatalf("ParseGenomeSpec(%q): %v", text, err)
		}
		if g != DefaultGenome() {
			t.Fatalf("ParseGenomeSpec(%q) = %s, want defaults", text, g)
		}
	}
	// Partial specs keep unset genes at their defaults.
	g, err := ParseGenomeSpec("tprof=120,gss=3")
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultGenome()
	want[GeneTprof], want[GeneGSS] = 120, 3
	if g != want {
		t.Fatalf("partial spec = %s, want %s", g, want)
	}
}

func TestParseGenomeSpecRejects(t *testing.T) {
	cases := []struct{ text, wantSub string }{
		{"bogus=1", "unknown gene"},
		{"tprof", "not key=value"},
		{"tprof=abc", "bad value"},
		{"tprof=10", "outside"},            // below min — never clamped
		{"tprof=1e6", "outside"},           // above max
		{"tprof=200.5", "integral"},        // integer gene
		{"medium=0.97,tiny=0.9", "medium"}, // ordering violation
		{"aging=NaN", "aging"},
	}
	for _, c := range cases {
		if _, err := ParseGenomeSpec(c.text); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseGenomeSpec(%q) err = %v, want substring %q", c.text, err, c.wantSub)
		}
	}
}

func TestRepairProducesValid(t *testing.T) {
	for k := 0; k < 200; k++ {
		rng := rngFor(7, k, 1)
		var g Genome
		for i := range g {
			g[i] = rng.Range(-1e7, 1e7)
		}
		if err := g.repair().Validate(); err != nil {
			t.Fatalf("repair produced invalid genome: %v", err)
		}
	}
}

func TestMutateCrossoverValid(t *testing.T) {
	a, b := DefaultGenome(), randomGenome(rngFor(3, 0, 1))
	for k := 0; k < 100; k++ {
		rng := rngFor(5, k, 2)
		child := crossover(rng, a, b).mutate(rng, 0.9, 0.5)
		if err := child.Validate(); err != nil {
			t.Fatalf("bred genome invalid: %v", err)
		}
	}
}

func TestRngForStateless(t *testing.T) {
	// Streams are pure functions of their coordinates: re-deriving gives the
	// same draws, and distinct coordinates give distinct streams.
	a1, a2 := rngFor(1, 2, 3), rngFor(1, 2, 3)
	if a1.Uint64() != a2.Uint64() {
		t.Fatal("same coordinates, different streams")
	}
	if rngFor(1, 2, 3).Uint64() == rngFor(1, 2, 4).Uint64() &&
		rngFor(1, 2, 3).Uint64() == rngFor(1, 3, 3).Uint64() {
		t.Fatal("distinct coordinates collide")
	}
}

func TestGenomeConfigValidates(t *testing.T) {
	// Every point in the gene box maps to a config core accepts: bounds were
	// chosen so Validate holds by construction.
	for k := 0; k < 100; k++ {
		g := randomGenome(rngFor(11, k, 0))
		cfg := g.Config().Normalized()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("genome %s maps to invalid config: %v", g, err)
		}
	}
}

// TestDefaultGenomeIsDefaultConfig: DefaultGenome is Lucid's paper defaults,
// knob for knob — Config inverts it — so the search starts from the
// scheduler the paper evaluates.
func TestDefaultGenomeIsDefaultConfig(t *testing.T) {
	if got, want := DefaultGenome().Config(), core.DefaultConfig(); got != want {
		t.Fatalf("DefaultGenome().Config() = %+v\ncore.DefaultConfig()   = %+v", got, want)
	}
}
