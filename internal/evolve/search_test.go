package evolve

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/lab"
)

// testScale keeps search tests at the 500-job trace floor: large enough for
// real queueing, small enough that a full search runs in seconds.
const testScale = 0.02

func testSpec() Spec {
	s := DefaultSpec()
	s.Seed = 7
	s.Pop = 4
	s.Gens = 2
	s.Worlds = []string{"philly"}
	s.ChaosMults = []float64{0}
	return s
}

func newTestEvaluator(t *testing.T, spec Spec) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(spec.Worlds, spec.ChaosMults, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func runSearch(t *testing.T, spec Spec) *Search {
	t.Helper()
	s := NewSearch(spec, newTestEvaluator(t, spec))
	if err := s.Run(""); err != nil {
		t.Fatal(err)
	}
	return s
}

// fingerprint captures everything the determinism contract promises:
// the best genome, its full fitness, and the complete fitness log.
func fingerprint(s *Search) string {
	return s.Best.String() + "\n" + fmt.Sprintf("%v", s.BestFit) + "\n" + strings.Join(s.Log, "\n")
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		DefaultSpec(),
		testSpec(),
		{Seed: 18446744073709551615, Pop: 3, Gens: 9,
			Budget: 77, Worlds: []string{"saturn", "venus"}, ChaosMults: []float64{0, 0.5, 16}},
	}
	for _, s := range specs {
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", s.String(), err)
		}
		if back.String() != s.String() {
			t.Fatalf("round trip diverged: %q != %q", back.String(), s.String())
		}
	}
	if s, err := ParseSpec(""); err != nil || s.String() != DefaultSpec().String() {
		t.Fatalf("empty spec = %v, %v; want default", s, err)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct{ text, wantSub string }{
		{"strategy=evo", "unknown key"},
		{"pop=1", "pop"},
		{"gens=0", "gens"},
		{"budget=-1", "budget"},
		{"worlds=mars", "unknown world"},
		{"chaos=-2", "chaos"},
		{"chaos=inf", "chaos"},
		{"chaos=0+inf", "chaos"},
		{"seed", "not key=value"},
		{"turbo=1", "unknown key"},
		{"seed=abc", "bad value"},
	}
	for _, c := range cases {
		if _, err := ParseSpec(c.text); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSpec(%q) err = %v, want substring %q", c.text, err, c.wantSub)
		}
	}
}

// TestSearchDeterministic: the same seed and budget produce a byte-identical
// best genome and fitness log across independent runs (fresh evaluators —
// the memo cache must be a pure optimization).
func TestSearchDeterministic(t *testing.T) {
	t.Run("evo", func(t *testing.T) {
		spec := testSpec()
		a, b := runSearch(t, spec), runSearch(t, spec)
		if fingerprint(a) != fingerprint(b) {
			t.Fatalf("same seed diverged:\n--- run A ---\n%s\n--- run B ---\n%s", fingerprint(a), fingerprint(b))
		}
		if a.Evals != b.Evals {
			t.Fatalf("eval counts diverged: %d vs %d", a.Evals, b.Evals)
		}
	})
	// Different seeds must actually move the search (guards against the RNG
	// being ignored).
	specA, specB := testSpec(), testSpec()
	specB.Seed = 8
	if fingerprint(runSearch(t, specA)) == fingerprint(runSearch(t, specB)) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// TestSerialVsParallelIdentical: the population fan-out over the lab worker
// pool must not perturb a single bit of the log or winner.
func TestSerialVsParallelIdentical(t *testing.T) {
	defer lab.SetParallelism(0)
	spec := testSpec()

	lab.SetParallelism(1)
	serial := runSearch(t, spec)
	lab.SetParallelism(4)
	par := runSearch(t, spec)

	if fingerprint(serial) != fingerprint(par) {
		t.Fatalf("serial vs parallel diverged:\n--- serial ---\n%s\n--- parallel ---\n%s",
			fingerprint(serial), fingerprint(par))
	}
}

// TestSnapshotResume: a search checkpointed mid-flight and resumed (into a
// fresh evaluator — no warm cache) must finish with a byte-identical final
// checkpoint to the uninterrupted run.
func TestSnapshotResume(t *testing.T) {
	t.Run("evo", func(t *testing.T) {
		spec := testSpec()

		// Uninterrupted run, capturing the checkpoint after every step.
		full := NewSearch(spec, newTestEvaluator(t, spec))
		var mid []byte
		steps := 0
		for {
			done, err := full.Step()
			if err != nil {
				t.Fatal(err)
			}
			steps++
			if steps == 1 {
				var buf bytes.Buffer
				if err := full.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				mid = buf.Bytes()
			}
			if done {
				break
			}
		}
		if steps < 2 {
			t.Fatalf("search finished in %d step(s); resume not exercised", steps)
		}

		resumed, err := LoadSearch(mid, spec, newTestEvaluator(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Run(""); err != nil {
			t.Fatal(err)
		}

		var wantBuf, gotBuf bytes.Buffer
		if err := full.Checkpoint(&wantBuf); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Checkpoint(&gotBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
			t.Fatalf("resumed run's final checkpoint diverged from uninterrupted run\nfull:    %s\nresumed: %s",
				fingerprint(full), fingerprint(resumed))
		}
	})
}

func TestLoadSearchRejectsMismatchedSpec(t *testing.T) {
	spec := testSpec()
	ev := newTestEvaluator(t, spec)
	s := NewSearch(spec, ev)
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed++
	if _, err := LoadSearch(buf.Bytes(), other, ev); err == nil {
		t.Fatal("LoadSearch accepted a checkpoint from a different spec")
	}
}

// sharedEv lazily builds one evaluator for the cheap cache/ordering tests.
var (
	sharedEvOnce sync.Once
	sharedEv     *Evaluator
	sharedEvErr  error
)

func getSharedEv(t *testing.T) *Evaluator {
	t.Helper()
	sharedEvOnce.Do(func() {
		sharedEv, sharedEvErr = NewEvaluator([]string{"philly"}, []float64{0}, testScale)
	})
	if sharedEvErr != nil {
		t.Fatal(sharedEvErr)
	}
	return sharedEv
}

func TestEvaluatorBaselineScoresOne(t *testing.T) {
	ev := getSharedEv(t)
	if got := ev.Baseline().Score; got != 1 {
		t.Fatalf("baseline score = %v, want exactly 1", got)
	}
	f, err := ev.Evaluate(DefaultGenome())
	if err != nil {
		t.Fatal(err)
	}
	if f.Score != 1 {
		t.Fatalf("default genome re-evaluated to %v, want 1", f.Score)
	}
}

func TestEvaluateAllOrderAndDuplicates(t *testing.T) {
	ev := getSharedEv(t)
	g1 := DefaultGenome()
	g2 := g1
	g2[GeneTprof] = 120
	fits, err := ev.EvaluateAll([]Genome{g2, g1, g2, g1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 4 {
		t.Fatalf("got %d fitnesses, want 4", len(fits))
	}
	if fits[0].Score != fits[2].Score || fits[1].Score != fits[3].Score {
		t.Fatal("duplicate genomes scored differently")
	}
	if fits[1].Score != 1 {
		t.Fatalf("default genome in batch scored %v, want 1", fits[1].Score)
	}
}
