package evolve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// The search layer walks the genome box with a deterministic, seedable
// (μ+λ)-style population search — elitism, tournament selection, uniform
// crossover, Gaussian mutation — whose every random draw comes from a stream
// derived statelessly from (seed, generation, individual), so breeding order
// and worker interleaving cannot change the trajectory.
//
// The search advances one generation per Step and serializes its complete
// state into an internal/snap envelope after each one, so a long search
// survives interruption: resuming from a checkpoint replays the exact
// trajectory an uninterrupted run would have taken (byte-identical log and
// best genome — the snapshot/resume test locks this in).

// Spec configures one search: seed, budget and the fitness suite.
type Spec struct {
	// Seed keys every random draw of the search.
	Seed uint64
	// Pop is the population size.
	Pop int
	// Gens bounds the generations.
	Gens int
	// Budget soft-caps fitness evaluations: the search stops at the first
	// step boundary at or past it (0 = unlimited). Counted per evaluated
	// population slot — a pure function of the trajectory, so budget stops
	// are identical across serial, parallel and resumed runs.
	Budget int
	// Worlds and ChaosMults define the fitness suite (see fitness.go).
	Worlds     []string
	ChaosMults []float64
}

// DefaultSpec is the committed-benchmark search: the full Table 4 world set,
// clean and at the calibrated fault rates, under a compact evolutionary
// budget.
func DefaultSpec() Spec {
	return Spec{
		Seed:       1,
		Pop:        8,
		Gens:       8,
		Budget:     0,
		Worlds:     []string{"venus", "saturn", "philly"},
		ChaosMults: []float64{0, 1},
	}
}

// Validate reports the first bad field, or nil.
func (s Spec) Validate() error {
	switch {
	case s.Pop < 2:
		return fmt.Errorf("evolve: pop %d < 2", s.Pop)
	case s.Gens < 1:
		return fmt.Errorf("evolve: gens %d < 1", s.Gens)
	case s.Budget < 0:
		return fmt.Errorf("evolve: budget %d < 0", s.Budget)
	case len(s.Worlds) == 0:
		return fmt.Errorf("evolve: no worlds")
	case len(s.ChaosMults) == 0:
		return fmt.Errorf("evolve: no chaos levels")
	}
	for _, w := range s.Worlds {
		if _, ok := trace.SpecByName(w); !ok {
			return fmt.Errorf("evolve: unknown world %q (want venus, saturn or philly)", w)
		}
	}
	for _, m := range s.ChaosMults {
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("evolve: chaos multiplier %g is not a finite value ≥ 0", m)
		}
	}
	return nil
}

// String renders the spec in the canonical key=value form ParseSpec accepts,
// omitting nothing, so ParseSpec(s.String()) round-trips exactly.
func (s Spec) String() string {
	mults := make([]string, len(s.ChaosMults))
	for i, m := range s.ChaosMults {
		mults[i] = ftoa(m)
	}
	return fmt.Sprintf("seed=%d,pop=%d,gens=%d,budget=%d,worlds=%s,chaos=%s",
		s.Seed, s.Pop, s.Gens, s.Budget,
		strings.Join(s.Worlds, "+"), strings.Join(mults, "+"))
}

// ParseSpec parses a comma-separated key=value search spec, e.g.
//
//	"seed=7,pop=5,gens=3,worlds=venus,chaos=0+1"
//
// Unset keys keep their DefaultSpec values; "default" (or "") yields
// DefaultSpec unchanged. List-valued keys use '+' as the separator.
func ParseSpec(text string) (Spec, error) {
	s := DefaultSpec()
	text = strings.TrimSpace(text)
	if text == "" || text == "default" {
		return s, nil
	}
	for _, kv := range strings.Split(text, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("evolve: %q is not key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
		case "pop":
			s.Pop, err = strconv.Atoi(val)
		case "gens":
			s.Gens, err = strconv.Atoi(val)
		case "budget":
			s.Budget, err = strconv.Atoi(val)
		case "worlds":
			s.Worlds, err = splitWorlds(val)
		case "chaos":
			s.ChaosMults, err = splitMults(val)
		default:
			return Spec{}, fmt.Errorf("evolve: unknown key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("evolve: bad value for %s: %v", key, err)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func splitWorlds(val string) ([]string, error) {
	var out []string
	for _, w := range strings.Split(val, "+") {
		w = strings.ToLower(strings.TrimSpace(w))
		if w == "" {
			continue
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty world list")
	}
	return out, nil
}

func splitMults(val string) ([]float64, error) {
	var out []float64
	for _, m := range strings.Split(val, "+") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		f, err := strconv.ParseFloat(m, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty chaos list")
	}
	return out, nil
}

// Search is a resumable optimization run. All exported state is part of the
// checkpoint; Step advances one generation.
type Search struct {
	Spec Spec
	ev   *Evaluator

	// Gen is the next generation.
	Gen int
	// Pop/Fits are the population; Fits[i] == nil means not yet evaluated
	// (elites carry their fitness across generations).
	Pop  []Genome
	Fits []*Fitness

	Best     Genome
	BestFit  Fitness
	haveBest bool

	// Log is the fitness log: one canonical line per evaluated slot, in
	// (step, slot) order — never completion order.
	Log   []string
	Evals int
	Done  bool
}

// NewSearch initializes a fresh search over an evaluator built for the same
// spec suite.
func NewSearch(spec Spec, ev *Evaluator) *Search {
	s := &Search{Spec: spec, ev: ev, Pop: make([]Genome, spec.Pop), Fits: make([]*Fitness, spec.Pop)}
	// Individual 0 is the paper default — the search must never lose to it —
	// and the rest scatter uniformly over the box, each from its own derived
	// stream.
	s.Pop[0] = DefaultGenome()
	for i := 1; i < spec.Pop; i++ {
		s.Pop[i] = randomGenome(rngFor(spec.Seed, 0, i))
	}
	return s
}

// Step runs one generation and reports whether the search is complete.
func (s *Search) Step() (bool, error) {
	if s.Done {
		return true, nil
	}
	if s.Spec.Budget > 0 && s.Evals >= s.Spec.Budget {
		s.Done = true
		return true, nil
	}
	if err := s.step(); err != nil {
		return false, err
	}
	return s.Done, nil
}

// Run steps the search to completion, writing a checkpoint after every step
// when checkpointPath is non-empty. snap.WriteFile installs it, so an interrupt
// or a power cut mid-write leaves the previous checkpoint intact.
func (s *Search) Run(checkpointPath string) error {
	for {
		done, err := s.Step()
		if err != nil {
			return err
		}
		if checkpointPath != "" {
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				return err
			}
			if err := snap.WriteFile(snap.OS, checkpointPath, buf.Bytes()); err != nil {
				return err
			}
		}
		if done {
			return nil
		}
	}
}

// logLine renders one evaluated slot canonically. %.9g keeps every digit
// that matters while staying stable across platforms (the floats themselves
// are deterministic).
func logLine(step string, idx int, g Genome, f Fitness) string {
	return fmt.Sprintf("%s idx=%d score=%.9g jct=%.9gh queue=%.9gh p999=%.9gh goodput=%.9g%% genome=%s",
		step, idx, f.Score, f.AvgJCTHours, f.AvgQueueHours, f.P999QueueHours, f.GoodputPct, g)
}

// better orders fitnesses with a total, deterministic tiebreak: score, then
// the canonical genome string.
func better(ga Genome, fa Fitness, gb Genome, fb Fitness) bool {
	if fa.Score != fb.Score {
		return fa.Score < fb.Score
	}
	return ga.String() < gb.String()
}

// noteBest folds one evaluated genome into the incumbent.
func (s *Search) noteBest(g Genome, f Fitness) {
	if !s.haveBest || better(g, f, s.Best, s.BestFit) {
		s.Best, s.BestFit, s.haveBest = g, f, true
	}
}

// step evaluates the current population and breeds the next one.
func (s *Search) step() error {
	// Evaluate every slot that doesn't carry fitness from the previous
	// generation. Budget counts slots, not cache misses, so accounting is a
	// pure function of the trajectory (resume-exact).
	var need []Genome
	for i, f := range s.Fits {
		if f == nil {
			need = append(need, s.Pop[i])
		}
	}
	fits, err := s.ev.EvaluateAll(need)
	if err != nil {
		return err
	}
	k := 0
	for i := range s.Fits {
		if s.Fits[i] == nil {
			f := fits[k]
			k++
			s.Fits[i] = &f
			s.Evals++
		}
		s.Log = append(s.Log, logLine(fmt.Sprintf("gen=%d", s.Gen), i, s.Pop[i], *s.Fits[i]))
		s.noteBest(s.Pop[i], *s.Fits[i])
	}

	s.Gen++
	if s.Gen >= s.Spec.Gens || (s.Spec.Budget > 0 && s.Evals >= s.Spec.Budget) {
		s.Done = true
		return nil
	}

	// Rank by (score, canonical string) — a total order, so the elite set
	// and tournament outcomes are unambiguous.
	order := make([]int, len(s.Pop))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return better(s.Pop[order[a]], *s.Fits[order[a]], s.Pop[order[b]], *s.Fits[order[b]])
	})

	elite := 2
	if elite > len(s.Pop) {
		elite = len(s.Pop)
	}
	nextPop := make([]Genome, len(s.Pop))
	nextFits := make([]*Fitness, len(s.Pop))
	for i := 0; i < elite; i++ {
		nextPop[i] = s.Pop[order[i]]
		nextFits[i] = s.Fits[order[i]] // carried fitness: elites are not re-scored
	}
	pick := func(rng *xrand.RNG) Genome {
		// Tournament of two over the ranked population: a uniform pair,
		// better rank wins.
		a, b := rng.Intn(len(order)), rng.Intn(len(order))
		if a > b {
			a = b
		}
		return s.Pop[order[a]]
	}
	for i := elite; i < len(s.Pop); i++ {
		rng := rngFor(s.Spec.Seed, s.Gen, i)
		child := crossover(rng, pick(rng), pick(rng)).mutate(rng, 0.5, 0.12)
		nextPop[i] = child
	}
	s.Pop, s.Fits = nextPop, nextFits
	return nil
}

// --- checkpointing ---

// searchStateKind is the snap envelope kind for search checkpoints.
const searchStateKind = "evolve-search"

// searchState is the serialized form of a Search. Genomes travel as their
// canonical specs (exact float round-trip via strconv 'g' -1); fitness
// floats survive encoding/json exactly, so a resumed search is
// bit-identical to an uninterrupted one.
type searchState struct {
	Spec     string     `json:"spec"`
	Gen      int        `json:"gen"`
	Pop      []string   `json:"pop,omitempty"`
	Fits     []*Fitness `json:"fits,omitempty"`
	Best     string     `json:"best,omitempty"`
	BestFit  Fitness    `json:"best_fit"`
	HaveBest bool       `json:"have_best"`
	Log      []string   `json:"log,omitempty"`
	Evals    int        `json:"evals"`
	Done     bool       `json:"done"`
}

// Checkpoint serializes the complete search state into a snap envelope.
func (s *Search) Checkpoint(w *bytes.Buffer) error {
	st := searchState{
		Spec: s.Spec.String(), Gen: s.Gen, Fits: s.Fits,
		BestFit: s.BestFit, HaveBest: s.haveBest,
		Log: s.Log, Evals: s.Evals, Done: s.Done,
	}
	for _, g := range s.Pop {
		st.Pop = append(st.Pop, g.String())
	}
	if s.haveBest {
		st.Best = s.Best.String()
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return snap.WriteEnvelope(w, searchStateKind, payload)
}

// LoadSearch restores a checkpointed search. The checkpoint's spec must
// match the requested one — resuming a search under different parameters
// would silently change the trajectory.
func LoadSearch(data []byte, spec Spec, ev *Evaluator) (*Search, error) {
	payload, err := snap.ReadEnvelope(bytes.NewReader(data), searchStateKind)
	if err != nil {
		return nil, err
	}
	var st searchState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("evolve: checkpoint payload: %w", err)
	}
	if st.Spec != spec.String() {
		return nil, fmt.Errorf("evolve: checkpoint spec %q does not match %q", st.Spec, spec.String())
	}
	s := &Search{
		Spec: spec, ev: ev, Gen: st.Gen, Fits: st.Fits,
		BestFit: st.BestFit, haveBest: st.HaveBest,
		Log: st.Log, Evals: st.Evals, Done: st.Done,
	}
	for _, gs := range st.Pop {
		g, err := ParseGenomeSpec(gs)
		if err != nil {
			return nil, fmt.Errorf("evolve: checkpoint population: %w", err)
		}
		s.Pop = append(s.Pop, g)
	}
	if st.Best != "" {
		if s.Best, err = ParseGenomeSpec(st.Best); err != nil {
			return nil, fmt.Errorf("evolve: checkpoint best: %w", err)
		}
	}
	if len(s.Pop) != len(s.Fits) {
		return nil, fmt.Errorf("evolve: checkpoint population/fitness length mismatch (%d vs %d)", len(s.Pop), len(s.Fits))
	}
	return s, nil
}
