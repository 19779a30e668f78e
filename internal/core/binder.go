package core

import (
	"sort"

	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PackMode is the Binder's Dynamic Strategy state (§3.3).
type PackMode int

// Packing modes: Default packs under GSS=2, Apathetic tightens to GSS=1,
// Disabled turns sharing off for faster completion at low load.
const (
	PackDefault PackMode = iota
	PackApathetic
	PackDisabled
)

// Binder is the Affine-jobpair Binder (§3.3): Indolent Packing under a GPU
// Sharing Capacity budget, with the rule set of the paper:
//
//  1. hard memory limit (OOM guard),
//  2. never pack different GPU demands (straggler effect),
//  3. at most two jobs per GPU set,
//  4. evict on unstable utilization (moot here: profiles are stationary by
//     construction — documented substitution),
//  5. never pack distributed jobs (network contention).
type Binder struct {
	// indolent applies the Sharing-Score budget; without it (the Figure 11a
	// "w/o Binder" ablation) the Binder packs naively under only the hard
	// rules. noSharing holds the Binder in PackDisabled ("w/o Sharing").
	indolent, noSharing bool
	mode                PackMode
}

// gss is the GPU Sharing Capacity, the Default-mode sharing budget (§3.3).
const gss = 2

// A partner with less estimated runtime left than minRemainSec is about to
// finish (Algorithm 2); memMarginFrac of GPU memory stays free as OOM headroom.
const minRemainSec, memMarginFrac = 600, 0.08

// newBinder returns the Binder cfg's ablation switches choose, in PackDefault
// mode unless DisableSharing.
func newBinder(cfg Config) *Binder {
	b := &Binder{indolent: !cfg.DisableBinder, noSharing: cfg.DisableSharing}
	b.SetMode(PackDefault)
	return b
}

// SetMode applies the Dynamic Strategy decision. A noSharing Binder stays
// PackDisabled whatever the decision.
func (b *Binder) SetMode(m PackMode) {
	if b.noSharing {
		m = PackDisabled
	}
	b.mode = m
}

// Mode returns the current packing mode.
func (b *Binder) Mode() PackMode { return b.mode }

// ModeFromLoad maps a throughput forecast level to a packing mode: low
// predicted load relaxes packing (§3.3's Dynamic Strategy).
func ModeFromLoad(level LoadLevel) PackMode {
	switch level {
	case LoadLow:
		return PackApathetic
	default:
		return PackDefault
	}
}

// gssNow is the effective sharing budget under the current mode.
func (b *Binder) gssNow() int {
	switch b.mode {
	case PackApathetic:
		return gss - 1
	case PackDisabled:
		return -1
	default:
		return gss
	}
}

// SharingEnabled reports whether any packing can happen right now
// (Algorithm 2's CheckSharingStrategy).
func (b *Binder) SharingEnabled() bool { return b.mode != PackDisabled }

// PackExplain collects the Binder's reasoning for one packing decision —
// the interpretability payload of a pack/pack-reject decision-trace event.
type PackExplain struct {
	// Reason names the rule that prevented packing entirely (set when
	// FindPartnerExplain returns nil).
	Reason string
	// ChosenScore is the chosen pairing's combined GPU utilization (the
	// Binder's deciding metric; lower is better).
	ChosenScore float64
	// Candidates are the same-VC, same-demand running jobs the Binder
	// examined and did not choose, each with the rule that rejected it (or
	// "runner-up" for viable but worse-scored pairings) and, where the
	// partner is profiled, the pairing's combined utilization. Sorted
	// best-scored first (scoreless rejects last), so truncating to K keeps
	// the most informative counterfactuals.
	Candidates []dtrace.Alternative
}

// fail records the decision-killing rule (nil-safe).
func (ex *PackExplain) fail(reason string) {
	if ex != nil {
		ex.Reason = reason
	}
}

// add records an examined candidate (nil-safe).
func (ex *PackExplain) add(id int, score float64, reason string) {
	if ex != nil {
		ex.Candidates = append(ex.Candidates, dtrace.Alternative{Job: id, Score: score, Reason: reason})
	}
}

// FindPartnerExplain returns the best running job to pack j with, or nil
// (Algorithm 2's CheckAffineJobPair). score gives each job's Sharing Score;
// remaining estimates a running job's remaining seconds, and nil (the
// submit orderer's) skips the remaining-runtime rule. ex, when non-nil,
// collects the explanation for decision tracing; nil costs nothing extra.
func (b *Binder) FindPartnerExplain(env *sim.Env, j *job.Job,
	score func(*job.Job) workload.SharingScore,
	remaining func(*job.Job) float64, ex *PackExplain) *job.Job {

	if !b.SharingEnabled() {
		ex.fail("sharing-disabled")
		return nil
	}
	if !j.Profiled {
		ex.fail("unprofiled")
		return nil
	}
	if j.Distributed() {
		ex.fail("distributed") // rule 5
		return nil
	}
	budget := b.gssNow()
	sj := score(j)
	if b.indolent && int(sj) > budget {
		ex.fail("score-over-budget") // a job too heavy for any partner under the budget
		return nil
	}

	memCap := workload.GPUMemMBCap * (1 - memMarginFrac)
	var best *job.Job
	bestKey := 1e18
	// Rule 2 (same VC and demand) picks the candidates; jobs it rules out are
	// not meaningful counterfactuals.
	for _, r := range env.RunningWith(j.VC, j.GPUs) {
		if r.Distributed() {
			ex.add(r.ID, 0, "distributed-partner") // rule 5
			continue
		}
		if !r.Profiled {
			ex.add(r.ID, 0, "unprofiled-partner")
			continue
		}
		key := j.Profile.GPUUtil + r.Profile.GPUUtil
		if env.Cluster().PartnerOf(r.ID) >= 0 {
			ex.add(r.ID, key, "has-partner") // rule 3: two jobs max
			continue
		}
		if j.Profile.GPUMemMB+r.Profile.GPUMemMB > memCap {
			ex.add(r.ID, key, "oom-guard") // rule 1: hard memory limit
			continue
		}
		if b.indolent && int(sj)+int(score(r)) > budget {
			ex.add(r.ID, key, "score-budget") // Indolent Packing: sharing-score budget
			continue
		}
		if remaining != nil && remaining(r) < minRemainSec {
			ex.add(r.ID, key, "ending-soon") // partner about to exit; packing buys nothing
			continue
		}
		// Prefer the least-contended pairing: lowest combined utilization.
		if key < bestKey {
			if best != nil {
				ex.add(best.ID, bestKey, "runner-up")
			}
			bestKey, best = key, r
		} else {
			ex.add(r.ID, key, "runner-up")
		}
	}
	if ex != nil {
		if best == nil {
			ex.fail("no-viable-partner")
		} else {
			ex.ChosenScore = bestKey
		}
		// Best-scored counterfactuals first; rejects without a computable
		// score sink to the end.
		sort.SliceStable(ex.Candidates, func(a, c int) bool {
			ca, cc := ex.Candidates[a], ex.Candidates[c]
			if (ca.Score > 0) != (cc.Score > 0) {
				return ca.Score > 0
			}
			return ca.Score < cc.Score
		})
	}
	return best
}
