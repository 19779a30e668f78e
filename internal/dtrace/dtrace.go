// Package dtrace is the decision-trace flight recorder: a zero-dependency
// structured log of every scheduling decision the simulator and the Lucid
// policy layer make. Where Result aggregates *outcomes* (JCT, queuing
// delay), dtrace captures *reasoning* — the paper's interpretability claim
// (§3.5, Figure 12) demands that an operator can ask "why was this job
// packed / delayed / profiled?", and the answer is an Event.
//
// Two layers feed the recorder:
//
//   - the engine (internal/sim) records what physically happened: place,
//     pack, preempt, profile transitions, retirement;
//   - the policy (internal/core) annotates why: the estimator ordering that
//     put a job at the head of the queue, the Indolent-packing rule that
//     rejected a partner, and the profiler's admit/evict rationale —
//     including a per-decision counterfactual: the top-K unchosen
//     alternatives with their scores and a regret value.
//
// The recorder is deterministic by construction: events are serialized to
// canonical JSON in record order and folded into a running FNV-1a digest,
// so two runs of the same seeded simulation must produce byte-identical
// traces — the property the golden-trace regression tests lock in. All
// methods are safe on a nil *Recorder (no-ops), which is how the engine's
// hot path stays zero-overhead when tracing is off.
package dtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"sync"
)

// Action labels the kind of decision an Event records.
type Action string

// Decision kinds. Engine actions (place, pack, retire, …) record state
// transitions; policy actions (order, pack-reject, profile-skip) record
// reasoning that did not necessarily change state.
const (
	ActRelease      Action = "release"       // job released to the scheduler queue
	ActPlace        Action = "place"         // exclusive placement on the main cluster
	ActPlaceFail    Action = "place-fail"    // exclusive placement attempt rejected
	ActPack         Action = "pack"          // shared (packed) placement accepted
	ActPackReject   Action = "pack-reject"   // packing considered and declined
	ActPlaceElastic Action = "place-elastic" // elastic placement (Pollux baseline)
	ActPreempt      Action = "preempt"       // intrusive checkpoint-preemption
	ActProfileStart Action = "profile-start" // admitted to the profiling cluster
	ActProfileStop  Action = "profile-stop"  // left the profiler (progress zeroed)
	ActProfileSkip  Action = "profile-skip"  // oversized: metrics observed on the fly
	ActOrder        Action = "order"         // queue-ordering decision (estimator)
	ActRetire       Action = "retire"        // job finished and left the cluster

	// Fault-injection actions (internal/chaos): the failure half of the
	// trace, so recovery decisions are as explainable as placement ones.
	ActNodeFail   Action = "node-fail"         // node crashed (capacity revoked) or agent lost
	ActNodeRepair Action = "node-repair"       // node returned from its repair window
	ActGPUFail    Action = "gpu-fail"          // transient GPU failure (resident jobs killed)
	ActRequeue    Action = "requeue"           // killed job re-entered the queue
	ActExhaust    Action = "retries-exhausted" // killed job hit its retry limit (terminal)
)

// Alternative is one unchosen option of a decision — a counterfactual the
// operator can compare against what the scheduler actually did.
type Alternative struct {
	// Job identifies the alternative job (partner candidate, next-in-queue).
	Job int `json:"job,omitempty"`
	// Score is the alternative's value under the deciding metric.
	Score float64 `json:"score"`
	// Reason states why this alternative lost (or was never viable).
	Reason string `json:"reason,omitempty"`
}

// Event is one recorded scheduling decision.
type Event struct {
	// Seq is the record's position in the trace (assigned by the recorder).
	Seq int64 `json:"seq"`
	// Tick is the simulation clock in seconds (0 for live servers).
	Tick int64 `json:"tick"`
	// Job is the subject of the decision.
	Job int `json:"job"`
	// Action is the decision kind.
	Action Action `json:"action"`
	// Reason is the rule or rationale that fired, e.g. "score-budget",
	// "tprof-exceeded", "no-capacity".
	Reason string `json:"reason,omitempty"`
	// VC and GPUs locate the subject's demand.
	VC   string `json:"vc,omitempty"`
	GPUs int    `json:"gpus,omitempty"`
	// Partner is the co-located job for pack decisions.
	Partner int `json:"partner,omitempty"`
	// Node is the 1-based node id for node-level fault events (node-fail,
	// node-repair, gpu-fail); 0 means "not a node event" and is omitted, so
	// fault-free traces serialize exactly as before.
	Node int `json:"node,omitempty"`
	// Score is the chosen option's value under the deciding metric
	// (combined utilization for packs, priority for ordering).
	Score float64 `json:"score,omitempty"`
	// Regret is how much better the best unchosen alternative scored than
	// the chosen option (0 when the choice was optimal under the metric).
	Regret float64 `json:"regret,omitempty"`
	// Alternatives are the top-K unchosen options.
	Alternatives []Alternative `json:"alts,omitempty"`
}

// Recorder accumulates events, maintains a running digest and summary
// counters, and optionally streams JSONL to a sink. A nil *Recorder is the
// "tracing off" state: every method no-ops, so callers never branch.
type Recorder struct {
	mu      sync.Mutex
	topK    int
	keep    int // max events retained in memory; <0 = unlimited
	sink    io.Writer
	sinkErr error

	st State
	// events holds the retained events. Once a keep bound fills it, it is a
	// ring: head indexes the oldest event, and each new event overwrites it.
	events []Event
	head   int
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// DefaultTopK is the default number of counterfactual alternatives kept per
// decision.
const DefaultTopK = 3

// New returns an enabled recorder retaining every event in memory.
func New() *Recorder {
	return &Recorder{
		topK: DefaultTopK,
		keep: -1,
		st:   State{Digest: fnvOffset, Counts: map[Action]int64{}, Reasons: map[string]int64{}},
	}
}

// Enabled reports whether events should be recorded; callers may use it to
// skip building expensive alternative lists.
func (r *Recorder) Enabled() bool { return r != nil }

// TopK returns how many alternatives a decision should carry (0 on nil).
func (r *Recorder) TopK() int {
	if r == nil {
		return 0
	}
	return r.topK
}

// SetTopK bounds the per-decision counterfactual size.
func (r *Recorder) SetTopK(k int) {
	if r == nil || k < 0 {
		return
	}
	r.mu.Lock()
	r.topK = k
	r.mu.Unlock()
}

// SetKeep bounds in-memory retention to the newest n events (the digest and
// summary counters still cover the whole trace, and Dropped counts the events
// no longer retained). n < 0 retains everything.
func (r *Recorder) SetKeep(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events, r.head = r.retainedLocked(), 0
	if n >= 0 && len(r.events) > n {
		r.st.Dropped += int64(len(r.events) - n)
		r.events = r.events[len(r.events)-n:]
	}
	r.keep = n
}

// SetSink streams every event to w as one JSON object per line, in record
// order. Write errors are sticky and reported by SinkErr.
func (r *Recorder) SetSink(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = w
	r.mu.Unlock()
}

// SinkErr returns the first sink write error, if any.
func (r *Recorder) SinkErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// sanitize replaces non-finite scores: NaN/Inf would poison the JSON
// encoding (and the digest) of the whole trace.
func sanitize(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// Record appends one event: assigns its sequence number, folds its
// canonical JSON into the digest, updates the summary counters, streams it
// to the sink, and retains it in memory subject to the keep bound.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	st := &r.st
	ev.Seq = st.Seq
	st.Seq++
	ev.Score = sanitize(ev.Score)
	ev.Regret = sanitize(ev.Regret)
	if r.topK >= 0 && len(ev.Alternatives) > r.topK {
		ev.Alternatives = ev.Alternatives[:r.topK]
	}
	for i := range ev.Alternatives {
		ev.Alternatives[i].Score = sanitize(ev.Alternatives[i].Score)
	}

	line, err := json.Marshal(ev)
	if err != nil {
		// Unreachable for this struct shape; keep the trace total anyway.
		line = []byte(fmt.Sprintf(`{"seq":%d,"action":"encode-error"}`, ev.Seq))
	}
	for _, b := range line {
		st.Digest = (st.Digest ^ uint64(b)) * fnvPrime
	}
	st.Digest = (st.Digest ^ uint64('\n')) * fnvPrime

	st.Counts[ev.Action]++
	if ev.Reason != "" {
		st.Reasons[string(ev.Action)+"/"+ev.Reason]++
	}
	if ev.Regret > 0 {
		st.RegretSum += ev.Regret
		st.RegretN++
		if ev.Regret > st.RegretMax {
			st.RegretMax = ev.Regret
		}
	}

	if r.sink != nil && r.sinkErr == nil {
		if _, err := r.sink.Write(append(line, '\n')); err != nil {
			r.sinkErr = err
		}
	}

	switch {
	case r.keep < 0 || len(r.events) < r.keep:
		r.events = append(r.events, ev)
	case r.keep == 0:
		st.Dropped++
	default:
		r.events[r.head] = ev
		r.head = (r.head + 1) % len(r.events)
		st.Dropped++
	}
}

// Events returns a copy of the retained events in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retainedLocked()
}

// retainedLocked copies the retained events out of the ring, oldest first.
func (r *Recorder) retainedLocked() []Event {
	if len(r.events) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	return append(out, r.events[:r.head]...)
}

// Digest returns the FNV-1a hash of the serialized trace so far, as a
// 16-hex-digit string. Two same-seed runs must agree byte for byte, so
// their digests must match — the golden-trace determinism property.
func (r *Recorder) Digest() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("%016x", r.st.Digest)
}

// State is the recorder's cumulative position in a trace: everything needed
// for a restored simulation to continue the digest and summary counters as
// if recording had never stopped. The recorder keeps its position in exactly
// this struct. Retained events and the sink are deliberately NOT part of the
// state — a resumed run re-attaches its own sink, and the digest covers the
// full trace regardless of retention.
type State struct {
	Seq       int64            `json:"seq"`
	Digest    uint64           `json:"digest"` // running FNV-1a over the serialized trace
	Dropped   int64            `json:"dropped"`
	Counts    map[Action]int64 `json:"counts,omitempty"`
	Reasons   map[string]int64 `json:"reasons,omitempty"` // "action/reason" → count
	RegretSum float64          `json:"regret_sum,omitempty"`
	RegretMax float64          `json:"regret_max,omitempty"`
	RegretN   int64            `json:"regret_n,omitempty"`
}

// SnapState captures a copy of the recorder's cumulative state (see State).
func (r *Recorder) SnapState() State {
	if r == nil {
		return State{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	st.Counts = maps.Clone(st.Counts)
	st.Reasons = maps.Clone(st.Reasons)
	return st
}

// SetState overwrites the recorder's cumulative counters from a snapshot,
// so subsequent Record calls continue the interrupted trace's sequence
// numbers and digest exactly. The recorder takes ownership of st's maps.
func (r *Recorder) SetState(st State) {
	if r == nil {
		return
	}
	if st.Digest == 0 {
		st.Digest = fnvOffset // zero-value State means "fresh trace"
	}
	if st.Counts == nil {
		st.Counts = map[Action]int64{}
	}
	if st.Reasons == nil {
		st.Reasons = map[string]int64{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st = st
	r.events, r.head = nil, 0
}

// WriteJSONL writes the retained events as JSON Lines. When a keep bound
// dropped events, prefer SetSink for a complete trace.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, ev := range r.Events() {
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}
