package evolve

import (
	"fmt"
	"sync"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The fitness layer scores a genome on a multi-objective simulation suite:
// every (world, chaos intensity) cell runs the genome's Lucid over the
// world's evaluation month and reports JCT, queuing and goodput; the score
// is a weighted sum of those metrics normalized by the paper-default
// genome's results on the identical cells, so 1.0 means "exactly as good as
// paper Lucid" and lower is better. Normalizing per cell keeps the
// objectives commensurable across worlds whose absolute JCTs differ by an
// order of magnitude (Saturn vs Venus).
//
// Evaluations are pure: worlds come from the process-wide cache
// (lab.GetWorld), every run clones its models and jobs, and a chaos spec
// is only read — so a fitness value is a deterministic function of (genome,
// suite) and the population fan-out over lab's bounded worker pool is
// byte-identical to a serial sweep.

// Objective weights. JCT is the headline Table 4 metric and dominates — a
// winner must actually finish jobs faster, not buy queue wins with JCT
// losses; the queue terms protect the tail (p99.9 pain) and goodput guards
// the chaos cells (wasted GPU-time under faults). The weights are dyadic
// (exact in float64) and sum to 1, so the paper-default baseline scores
// exactly 1.0 — not 1±ulp — and "beats default" is a clean strict
// inequality.
const (
	weightJCT     = 0.75
	weightQueue   = 0.125
	weightTail    = 0.0625
	weightGoodput = 0.0625
)

// CellMetrics is one (world, chaos) cell of a fitness evaluation.
type CellMetrics struct {
	World        string  `json:"world"`
	ChaosMult    float64 `json:"chaos_mult"`
	AvgJCTSec    float64 `json:"avg_jct_sec"`
	AvgQueueSec  float64 `json:"avg_queue_sec"`
	P999QueueSec float64 `json:"p999_queue_sec"`
	GoodputPct   float64 `json:"goodput_pct"`
}

// Fitness is a genome's score plus the per-cell evidence behind it.
type Fitness struct {
	// Score is the weighted normalized objective: 1.0 = paper-default
	// Lucid on the same suite, lower is better.
	Score float64 `json:"score"`
	// Suite-wide means (across cells) in reporting units.
	AvgJCTHours    float64 `json:"avg_jct_hours"`
	AvgQueueHours  float64 `json:"avg_queue_hours"`
	P999QueueHours float64 `json:"p999_queue_hours"`
	GoodputPct     float64 `json:"goodput_pct"`

	Cells []CellMetrics `json:"cells,omitempty"`
}

// Evaluator scores genomes against one fixed suite. It memoizes fitness by
// genome — re-scoring an elite or a duplicate child costs nothing — but the
// cache is a pure wall-clock optimization: evaluation is deterministic, so
// hits and misses return identical values.
type Evaluator struct {
	worldNames []string
	worlds     []*lab.World
	mults      []float64

	baseline []CellMetrics // default genome, one per (world, chaos) cell
	baseFit  Fitness

	mu    sync.Mutex
	cache map[Genome]Fitness
}

// NewEvaluator builds (or fetches from the process cache) the suite's worlds
// and scores the paper-default genome to anchor normalization.
func NewEvaluator(worldNames []string, chaosMults []float64, scale float64) (*Evaluator, error) {
	if len(worldNames) == 0 || len(chaosMults) == 0 {
		return nil, fmt.Errorf("evolve: suite needs at least one world and one chaos level")
	}
	specs := make([]trace.GenSpec, len(worldNames))
	for i, name := range worldNames {
		spec, ok := trace.SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("evolve: unknown world %q (want venus, saturn or philly)", name)
		}
		specs[i] = spec
	}
	worlds, err := lab.GetWorlds(specs, scale)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		worldNames: append([]string(nil), worldNames...),
		worlds:     worlds,
		mults:      append([]float64(nil), chaosMults...),
		cache:      map[Genome]Fitness{},
	}
	// With no baseline yet, assemble scores the default genome against
	// itself: its Score is exactly 1, and it is cached as such.
	base, err := e.Evaluate(DefaultGenome())
	if err != nil {
		return nil, err
	}
	e.baseline = base.Cells
	e.baseFit = base
	return e, nil
}

// Baseline returns the paper-default genome's fitness (Score is 1 by
// construction).
func (e *Evaluator) Baseline() Fitness { return e.baseFit }

// Worlds returns the suite's worlds (read-only; shared with the lab cache).
func (e *Evaluator) Worlds() []*lab.World { return e.worlds }

// runCell executes one (genome, world, chaos) simulation.
func (e *Evaluator) runCell(g Genome, wi, mi int) (CellMetrics, error) {
	w := e.worlds[wi]
	opts := lab.LucidOpts(w.Spec)
	if m := e.mults[mi]; m > 0 {
		opts.Chaos = lab.ChaosSweepSpec(m)
	}
	sched, err := w.NewLucidTuned(g.Config())
	if err != nil {
		return CellMetrics{}, err
	}
	res := sim.New(w.Eval, sched, opts).Run()
	return CellMetrics{
		World:        e.worldNames[wi],
		ChaosMult:    e.mults[mi],
		AvgJCTSec:    res.AvgJCTSec,
		AvgQueueSec:  res.AvgQueueSec,
		P999QueueSec: res.P999QueueSec,
		GoodputPct:   res.GoodputPct(),
	}, nil
}

// ratio compares a candidate metric to the baseline's, lower-is-better. The
// epsilon keeps near-zero baselines (an empty-queue cell at tiny scales)
// from exploding the term.
func ratio(cand, base float64) float64 {
	const eps = 1.0
	return (cand + eps) / (base + eps)
}

// assemble folds per-cell metrics into a Fitness, scoring against the
// baseline cells. Iteration order is fixed (cell index), so the float
// accumulation — and therefore the score — is deterministic.
func (e *Evaluator) assemble(cells []CellMetrics) Fitness {
	f := Fitness{Cells: cells}
	var score float64
	for i, c := range cells {
		var b CellMetrics
		if e.baseline != nil {
			b = e.baseline[i]
		} else {
			b = c // scoring the baseline itself: every ratio is 1
		}
		score += weightJCT*ratio(c.AvgJCTSec, b.AvgJCTSec) +
			weightQueue*ratio(c.AvgQueueSec, b.AvgQueueSec) +
			weightTail*ratio(c.P999QueueSec, b.P999QueueSec) +
			weightGoodput*ratio(b.GoodputPct, c.GoodputPct)
		f.AvgJCTHours += c.AvgJCTSec / 3600
		f.AvgQueueHours += c.AvgQueueSec / 3600
		f.P999QueueHours += c.P999QueueSec / 3600
		f.GoodputPct += c.GoodputPct
	}
	n := float64(len(cells))
	f.Score = score / n
	f.AvgJCTHours /= n
	f.AvgQueueHours /= n
	f.P999QueueHours /= n
	f.GoodputPct /= n
	return f
}

// Evaluate scores one genome (cached).
func (e *Evaluator) Evaluate(g Genome) (Fitness, error) {
	fits, err := e.EvaluateAll([]Genome{g})
	if err != nil {
		return Fitness{}, err
	}
	return fits[0], nil
}

// EvaluateAll scores a batch of genomes, running the unique uncached ones'
// suites concurrently as one flat (genome, cell) grid on the lab pool.
// Results return in input order.
func (e *Evaluator) EvaluateAll(gs []Genome) ([]Fitness, error) {
	// Collect unique uncached genomes in first-occurrence order.
	var todo []Genome
	seen := map[Genome]bool{}
	e.mu.Lock()
	for _, g := range gs {
		if _, hit := e.cache[g]; !hit && !seen[g] {
			seen[g] = true
			todo = append(todo, g)
		}
	}
	e.mu.Unlock()

	if len(todo) > 0 {
		nc := len(e.worlds) * len(e.mults) // cells per genome, world-major
		cells := make([]CellMetrics, len(todo)*nc)
		errs := make([]error, len(todo)*nc)
		lab.ForEachPar(len(todo)*nc, func(i int) {
			ci := i % nc
			cells[i], errs[i] = e.runCell(todo[i/nc], ci/len(e.mults), ci%len(e.mults))
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		e.mu.Lock()
		for ti, g := range todo {
			e.cache[g] = e.assemble(cells[ti*nc : (ti+1)*nc])
		}
		e.mu.Unlock()
	}

	out := make([]Fitness, len(gs))
	e.mu.Lock()
	for i, g := range gs {
		out[i] = e.cache[g]
	}
	e.mu.Unlock()
	return out, nil
}
