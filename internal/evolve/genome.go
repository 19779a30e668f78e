// Package evolve closes the loop the ROADMAP calls "policy optimization
// driven by decision-trace regret": it treats Lucid's operator-tunable knobs
// (core.Config — the Table 6 / §4.5 surface) as a bounded genome, scores
// candidate genomes on a multi-objective simulation suite (several worlds ×
// chaos levels, reusing the lab world cache and worker pool), and searches
// the knob space with deterministic, seedable strategies. The winner stays
// fully interpretable: it IS a core.Config, and the explain layer reports
// per-knob sensitivity (what each tuned knob buys, measured by reverting it)
// plus the decision-trace regret delta versus the paper defaults — so the
// output is a story about why the tuned schedule is better, not a weight
// blob.
//
// Determinism is the same contract as the rest of the harness: a fitness
// evaluation is a pure function of (genome, suite), per-individual mutation
// streams are derived statelessly from (seed, generation, index) via
// splitmix64 — never from a shared sequential RNG — and results land in
// index-addressed slots, so the same seed and budget produce byte-identical
// best genomes and fitness logs whether the population evaluates serially
// or across N workers, and a search checkpointed mid-flight (internal/snap
// envelopes) resumes into the exact uninterrupted trajectory.
package evolve

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Gene indices into a Genome vector. The order is canonical: String renders
// genes in this order and the sensitivity report walks it.
const (
	GeneTprof   = iota // profiling time limit, seconds (Table 6)
	GeneNprof          // profiling job-scale limit, GPUs
	GeneGSS            // GPU sharing capacity
	GeneMedium         // classifier Medium threshold (§3.5.1)
	GeneTiny           // classifier Tiny threshold
	GeneUpdate         // Update Engine refit period, seconds
	GeneAging          // fairness aging credit, sec/sec waited (§6)
	GeneFastJob        // heterogeneity fast-node steering cut, seconds (§6)
	NumGenes
)

// GeneDef bounds one knob. Bounds are the operator-plausible ranges around
// the paper's Table 6 defaults — wide enough for the search to matter,
// narrow enough that every point in the box is a sane production config
// (and passes core.Config.Validate by construction).
type GeneDef struct {
	Key     string  // spec key, e.g. "tprof"
	Min     float64 // inclusive lower bound
	Max     float64 // inclusive upper bound
	Integer bool    // values are rounded to integers
}

// Genes is the canonical gene table (indexed by the Gene* constants).
var Genes = [NumGenes]GeneDef{
	{Key: "tprof", Min: 30, Max: 900, Integer: true},
	{Key: "nprof", Min: 1, Max: 32, Integer: true},
	{Key: "gss", Min: 1, Max: 4, Integer: true},
	{Key: "medium", Min: 0.5, Max: 1},
	{Key: "tiny", Min: 0.5, Max: 1},
	{Key: "update", Min: 43200, Max: 2419200, Integer: true},
	{Key: "aging", Min: 0, Max: 4},
	{Key: "fastjob", Min: 600, Max: 28800},
}

// Genome is one point in the knob box: a bounded, validated parameter
// vector over core.Config's tunables. Integer genes hold exact integral
// float64 values, so Genome is directly comparable and String/ParseGenomeSpec
// round-trip exactly.
type Genome [NumGenes]float64

// DefaultGenome returns the paper-default point: Config's inverse of
// core.DefaultConfig.
func DefaultGenome() Genome {
	c := core.DefaultConfig()
	return Genome{
		GeneTprof:   float64(c.TprofSec),
		GeneNprof:   float64(c.Nprof),
		GeneGSS:     float64(c.GSS),
		GeneMedium:  c.Thresholds.Medium,
		GeneTiny:    c.Thresholds.Tiny,
		GeneUpdate:  float64(c.UpdateIntervalSec),
		GeneAging:   c.FairnessAgingSec,
		GeneFastJob: c.FastJobThresholdSec,
	}
}

// Validate reports the first out-of-bounds gene (or ordering violation) as a
// named error, or nil.
func (g Genome) Validate() error {
	for i, d := range Genes {
		v := g[i]
		if math.IsNaN(v) || v < d.Min || v > d.Max {
			return fmt.Errorf("evolve: gene %s=%g outside [%g,%g]", d.Key, v, d.Min, d.Max)
		}
		if d.Integer && v != math.Trunc(v) {
			return fmt.Errorf("evolve: gene %s=%g is not integral", d.Key, v)
		}
	}
	if g[GeneMedium] > g[GeneTiny] {
		return fmt.Errorf("evolve: gene medium=%g > tiny=%g", g[GeneMedium], g[GeneTiny])
	}
	return nil
}

// repair clamps every gene into bounds, rounds integer genes, and restores
// the medium ≤ tiny ordering (by swapping — both values stay in range). The
// search applies it after every mutation/crossover so candidates are valid
// by construction.
func (g Genome) repair() Genome {
	def := DefaultGenome()
	for i, d := range Genes {
		v := g[i]
		if math.IsNaN(v) {
			v = def[i]
		}
		if d.Integer {
			v = math.Round(v)
		}
		if v < d.Min {
			v = d.Min
		}
		if v > d.Max {
			v = d.Max
		}
		g[i] = v
	}
	if g[GeneMedium] > g[GeneTiny] {
		g[GeneMedium], g[GeneTiny] = g[GeneTiny], g[GeneMedium]
	}
	return g
}

// Config maps the genome onto core.Config, leaving the ablation switches at
// their defaults (the search tunes knobs, it does not ablate subsystems).
func (g Genome) Config() core.Config {
	c := core.DefaultConfig()
	c.TprofSec = int64(g[GeneTprof])
	c.Nprof = int(g[GeneNprof])
	c.GSS = int(g[GeneGSS])
	c.Thresholds = workload.Thresholds{Medium: g[GeneMedium], Tiny: g[GeneTiny]}
	c.UpdateIntervalSec = int64(g[GeneUpdate])
	c.FairnessAgingSec = g[GeneAging]
	c.FastJobThresholdSec = g[GeneFastJob]
	return c
}

// String renders the genome in the canonical key=value form ParseGenomeSpec
// accepts, omitting nothing, so ParseGenomeSpec(g.String()) round-trips
// exactly (the same contract as chaos.Spec.String).
func (g Genome) String() string {
	parts := make([]string, NumGenes)
	for i, d := range Genes {
		if d.Integer {
			parts[i] = fmt.Sprintf("%s=%d", d.Key, int64(g[i]))
		} else {
			parts[i] = fmt.Sprintf("%s=%s", d.Key, ftoa(g[i]))
		}
	}
	return strings.Join(parts, ",")
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// ParseGenomeSpec parses a comma-separated key=value genome, e.g.
//
//	"tprof=120,gss=3,aging=0.5"
//
// Unset keys keep their paper defaults. The literal "default" (or "") yields
// DefaultGenome. The result is validated against the gene bounds — an
// out-of-range or non-integral value is an error, never silently clamped.
func ParseGenomeSpec(text string) (Genome, error) {
	g := DefaultGenome()
	text = strings.TrimSpace(text)
	if text == "" || text == "default" {
		return g, nil
	}
	byKey := map[string]int{}
	for i, d := range Genes {
		byKey[d.Key] = i
	}
	for _, kv := range strings.Split(text, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Genome{}, fmt.Errorf("evolve: %q is not key=value", kv)
		}
		i, known := byKey[strings.TrimSpace(key)]
		if !known {
			return Genome{}, fmt.Errorf("evolve: unknown gene %q", strings.TrimSpace(key))
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return Genome{}, fmt.Errorf("evolve: bad value for %s: %v", Genes[i].Key, err)
		}
		g[i] = f
	}
	if err := g.Validate(); err != nil {
		return Genome{}, err
	}
	return g, nil
}

// rngFor derives the private random stream for individual idx of generation
// gen under the search seed. Streams are independent functions of their
// coordinates — not positions in a shared sequence — so populations can be
// produced and mutated in any order (or in parallel) without changing a
// single draw: the same property internal/chaos relies on for fault
// schedules.
func rngFor(seed uint64, gen, idx int) *xrand.RNG {
	h := xrand.Mix64(seed + 0x9e3779b97f4a7c15)
	h = xrand.Mix64(h ^ uint64(gen)*0xbf58476d1ce4e5b9)
	h = xrand.Mix64(h ^ uint64(idx)*0x94d049bb133111eb)
	return xrand.New(h)
}

// randomGenome draws a uniform point in the gene box (used to seed the
// initial population around the default individual).
func randomGenome(rng *xrand.RNG) Genome {
	var g Genome
	for i, d := range Genes {
		g[i] = rng.Range(d.Min, d.Max)
	}
	return g.repair()
}

// mutate perturbs each gene with probability mutProb by a normal step scaled
// to mutScale of its range, then repairs.
func (g Genome) mutate(rng *xrand.RNG, mutProb, mutScale float64) Genome {
	for i, d := range Genes {
		if rng.Float64() < mutProb {
			g[i] += rng.Norm(0, (d.Max-d.Min)*mutScale)
		}
	}
	return g.repair()
}

// crossover mixes two parents gene-wise (uniform crossover), then repairs.
func crossover(rng *xrand.RNG, a, b Genome) Genome {
	var g Genome
	for i := range g {
		if rng.Bool(0.5) {
			g[i] = a[i]
		} else {
			g[i] = b[i]
		}
	}
	return g.repair()
}
