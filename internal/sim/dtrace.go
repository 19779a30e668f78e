package sim

import (
	"repro/internal/dtrace"
	"repro/internal/job"
)

// Decision-trace plumbing: the engine records what physically happened
// (placements, packs, preemptions, profile transitions, retirements) on the
// recorder in Options.DecisionTrace, and schedulers annotate why via
// Env.Annotate — the annotation is folded into the next engine event for
// that job, so one decision yields one event carrying both the state
// transition and the policy's reasoning plus counterfactual.
//
// Everything here is a no-op when Options.DecisionTrace is nil; the hot
// path pays a single nil check.

// annotation is a pending policy-side explanation for a job's next engine
// event.
type annotation struct {
	reason string
	score  float64
	regret float64
	alts   []dtrace.Alternative
}

// trace records one engine event, consuming any pending annotation for the
// job.
func (s *Sim) trace(act dtrace.Action, j *job.Job, reason string, partner int) {
	rec := s.opts.DecisionTrace
	if rec == nil {
		return
	}
	ev := dtrace.Event{
		Tick: s.now, Job: j.ID, Action: act, Reason: reason,
		VC: j.VC, GPUs: j.GPUs, Partner: partner,
	}
	if ann, ok := s.pendAnn[j.ID]; ok {
		delete(s.pendAnn, j.ID)
		if ann.reason != "" {
			ev.Reason = ann.reason
		}
		ev.Score = ann.score
		ev.Regret = ann.regret
		ev.Alternatives = ann.alts
	}
	rec.Record(ev)
}

// Trace returns the decision-trace recorder (nil when tracing is off).
// Schedulers use it to record policy-level events (ordering, pack
// rejections) and to gate building alternative lists on
// Trace().Enabled().
func (e *Env) Trace() *dtrace.Recorder { return e.s.opts.DecisionTrace }

// Annotate attaches a policy-side explanation — the deciding rule, the
// chosen option's score, the regret, and the top-K unchosen alternatives —
// to the next engine event recorded for the job (typically the placement
// the scheduler is about to request). No-op when tracing is off; stale
// annotations are discarded at the end of the scheduler invocation.
func (e *Env) Annotate(jobID int, reason string, score, regret float64, alts []dtrace.Alternative) {
	if e.s.opts.DecisionTrace == nil {
		return
	}
	if e.s.pendAnn == nil {
		e.s.pendAnn = make(map[int]annotation)
	}
	e.s.pendAnn[jobID] = annotation{reason: reason, score: score, regret: regret, alts: alts}
}
