package evolve

import (
	"fmt"
	"strings"

	"repro/internal/dtrace"
	"repro/internal/lab"
	"repro/internal/sim"
)

// The explain layer turns a tuned genome into a story: which knobs moved off
// the paper defaults, what each move individually buys (sensitivity — the
// winner re-scored with that one gene reverted), and how the tuned schedule's
// decision quality compares to the default's on the decision trace (regret
// over the recorded placement/packing choices). Interpretability is the
// paper's selling point; the tuner must not erode it.

// KnobReport is one tuned knob's contribution.
type KnobReport struct {
	Key     string  `json:"key"`
	Default float64 `json:"default"`
	Tuned   float64 `json:"tuned"`
	// RevertScore is the winner's fitness with only this gene put back to
	// its paper default (the other tuned knobs kept). RevertScore minus the
	// winner's score is what this knob alone is worth: positive means
	// reverting it hurts, i.e. the knob carries real improvement.
	RevertScore float64 `json:"revert_score"`
	Delta       float64 `json:"delta"`
}

// RegretReport compares decision-trace regret between the paper-default and
// tuned configs on one world.
type RegretReport struct {
	World             string  `json:"world"`
	DefaultRegretMean float64 `json:"default_regret_mean"`
	DefaultRegretMax  float64 `json:"default_regret_max"`
	DefaultRegretN    int64   `json:"default_regret_n"`
	TunedRegretMean   float64 `json:"tuned_regret_mean"`
	TunedRegretMax    float64 `json:"tuned_regret_max"`
	TunedRegretN      int64   `json:"tuned_regret_n"`
}

// Explanation is the full report for a winning genome.
type Explanation struct {
	Genome    string       `json:"genome"`
	Score     float64      `json:"score"`
	Knobs     []KnobReport `json:"knobs,omitempty"`
	Regret    RegretReport `json:"regret"`
	Unchanged []string     `json:"unchanged,omitempty"`
}

// revertGene puts one gene of the winner back to its paper default, clamping
// the medium/tiny partner so the ordering constraint holds without moving a
// second knob past it.
func revertGene(g Genome, i int) Genome {
	g[i] = DefaultGenome()[i]
	if g[GeneMedium] > g[GeneTiny] {
		if i == GeneMedium {
			g[GeneMedium] = g[GeneTiny]
		} else {
			g[GeneTiny] = g[GeneMedium]
		}
	}
	return g
}

// Explain builds the sensitivity and regret report for a winner against the
// evaluator's suite. Sensitivity re-evaluates the winner once per tuned knob
// (cached cells make this cheap when reverts collide with seen genomes); the
// regret comparison replays the first suite world with a decision-trace
// recorder under both configs.
func Explain(best Genome, bestFit Fitness, ev *Evaluator) (*Explanation, error) {
	ex := &Explanation{Genome: best.String(), Score: bestFit.Score}
	def := DefaultGenome()

	for i, d := range Genes {
		if best[i] == def[i] {
			ex.Unchanged = append(ex.Unchanged, d.Key)
			continue
		}
		rf, err := ev.Evaluate(revertGene(best, i))
		if err != nil {
			return nil, err
		}
		ex.Knobs = append(ex.Knobs, KnobReport{
			Key:         d.Key,
			Default:     def[i],
			Tuned:       best[i],
			RevertScore: rf.Score,
			Delta:       rf.Score - bestFit.Score,
		})
	}

	// Decision-trace regret: default vs tuned on the suite's first world,
	// clean (no chaos), each run with its own recorder.
	w := ev.Worlds()[0]
	run := func(g Genome) (dtrace.Summary, error) {
		rec := dtrace.New()
		opts := lab.LucidOpts(w.Spec)
		opts.DecisionTrace = rec
		sched, err := w.NewLucidTuned(g.Config())
		if err != nil {
			return dtrace.Summary{}, err
		}
		sim.New(w.Eval, sched, opts).Run()
		return rec.Summary(), nil
	}
	ds, err := run(def)
	if err != nil {
		return nil, err
	}
	ts, err := run(best)
	if err != nil {
		return nil, err
	}
	ex.Regret = RegretReport{
		World:             w.Spec.Name,
		DefaultRegretMean: ds.RegretMean, DefaultRegretMax: ds.RegretMax, DefaultRegretN: ds.RegretN,
		TunedRegretMean: ts.RegretMean, TunedRegretMax: ts.RegretMax, TunedRegretN: ts.RegretN,
	}
	return ex, nil
}

// Render formats the explanation as the human report lucidbench prints.
func (ex *Explanation) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Winner: %s\n", ex.Genome)
	fmt.Fprintf(&sb, "Score: %.6g (1.0 = paper-default Lucid; lower is better)\n\n", ex.Score)
	if len(ex.Knobs) > 0 {
		sb.WriteString("Per-knob sensitivity (winner re-scored with each knob reverted to its paper default;\n")
		sb.WriteString("positive delta = reverting hurts, so the tuned value carries real improvement):\n")
		for _, k := range ex.Knobs {
			fmt.Fprintf(&sb, "  %-8s %12g -> %-12g revert-score %.6g  delta %+.6g\n",
				k.Key, k.Default, k.Tuned, k.RevertScore, k.Delta)
		}
		sb.WriteString("\n")
	}
	if len(ex.Unchanged) > 0 {
		fmt.Fprintf(&sb, "Knobs left at paper defaults: %s\n\n", strings.Join(ex.Unchanged, ", "))
	}
	r := ex.Regret
	fmt.Fprintf(&sb, "Decision-trace regret on %s (clean run):\n", r.World)
	fmt.Fprintf(&sb, "  default: mean %.4g  max %.4g  (n=%d)\n", r.DefaultRegretMean, r.DefaultRegretMax, r.DefaultRegretN)
	fmt.Fprintf(&sb, "  tuned:   mean %.4g  max %.4g  (n=%d)\n", r.TunedRegretMean, r.TunedRegretMax, r.TunedRegretN)
	fmt.Fprintf(&sb, "  delta:   mean %+.4g  max %+.4g\n", r.TunedRegretMean-r.DefaultRegretMean, r.TunedRegretMax-r.DefaultRegretMax)
	return sb.String()
}
