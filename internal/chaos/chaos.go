// Package chaos is the deterministic fault-injection engine for the cluster
// simulator and the lucidd control plane. It models the failure classes that
// dominate wasted GPU-time in production datacenters (Hu et al.'s
// characterization, PAPERS.md): node crashes that revoke capacity for a
// repair window and kill every resident job, transient GPU faults that kill
// residents without revoking capacity, per-step job crashes with a retry
// budget, and straggler nodes running at a degraded per-GPU speed.
//
// Determinism is the design center. Faults are not drawn from a shared
// stream (which would make them order-dependent); each potential fault is an
// independent Bernoulli trial keyed by (seed, fault kind, entity id, tick)
// through a stateless splitmix64-style hash. Two runs with the same seed and
// spec therefore produce the identical fault schedule regardless of map
// iteration order, goroutine interleaving, or how many other entities exist
// — the property the golden-trace chaos determinism tests lock in.
//
// The package knows nothing about jobs or scheduling. The simulator
// (internal/sim) asks "which nodes crash this tick?" and owns the recovery
// half: killing residents, voiding or restoring checkpoints, and requeueing
// with backoff.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
)

// Spec configures the fault model. Rates are expected events per entity per
// day, so they compose naturally with the characterization literature
// (failures/day per node, crashes/day per job) and stay tick-size
// independent: per tick of dt seconds the Bernoulli probability is
// rate·dt/86400, clamped to 1.
type Spec struct {
	// Seed keys the fault schedule. Same seed + same spec = same faults.
	Seed uint64

	// NodeFailPerDay is the per-node crash rate. A crash kills every job
	// resident on the node and revokes its capacity for RepairSec seconds.
	NodeFailPerDay float64
	// RepairSec is how long a crashed node stays out of service.
	RepairSec int64

	// GPUFailPerDay is the per-GPU transient-fault rate (ECC error, Xid,
	// NVLink flap). Jobs resident on the GPU are killed; the device itself
	// recovers immediately, so no capacity is revoked.
	GPUFailPerDay float64

	// JobCrashPerDay is the per-job crash-on-step rate while running.
	JobCrashPerDay float64

	// MaxRetries bounds how many times a killed job is requeued before it is
	// marked Failed. Negative means unlimited retries.
	MaxRetries int

	// BackoffSec is the base requeue delay after a kill; it doubles per
	// restart (capped at MaxBackoffSec), so crash-looping jobs back off
	// exponentially instead of thrashing the queue.
	BackoffSec    int64
	MaxBackoffSec int64

	// RestoreSec is the cold-start debt charged when a killed job restarts
	// from a checkpoint. Jobs with no checkpoint restart from zero and pay
	// nothing — the non-intrusive rule (PAPER.md A2) means Lucid never
	// forced a checkpoint on them.
	RestoreSec float64

	// StragglerFrac of nodes (chosen deterministically from Seed) run at
	// StragglerSlowdown × their nominal per-GPU speed (0 < slowdown ≤ 1).
	StragglerFrac     float64
	StragglerSlowdown float64
}

// DefaultSpec returns failure rates calibrated to the ranges reported for
// large production GPU clusters: a node falls over about once every 20 days,
// repairs take 30 minutes, transient GPU faults are an order of magnitude
// rarer per device, and an average job crashes about once every four days of
// running. Retries and backoff mirror common cluster-manager defaults.
func DefaultSpec() Spec {
	return Spec{
		Seed:              1,
		NodeFailPerDay:    0.05,
		RepairSec:         1800,
		GPUFailPerDay:     0.005,
		JobCrashPerDay:    0.25,
		MaxRetries:        3,
		BackoffSec:        300,
		MaxBackoffSec:     4 * 3600,
		RestoreSec:        62,
		StragglerFrac:     0,
		StragglerSlowdown: 1,
	}
}

// Validate reports the first configuration error, or nil.
func (s Spec) Validate() error {
	switch {
	case s.NodeFailPerDay < 0:
		return fmt.Errorf("chaos: nodefail rate %g < 0", s.NodeFailPerDay)
	case s.GPUFailPerDay < 0:
		return fmt.Errorf("chaos: gpufail rate %g < 0", s.GPUFailPerDay)
	case s.JobCrashPerDay < 0:
		return fmt.Errorf("chaos: jobcrash rate %g < 0", s.JobCrashPerDay)
	case s.RepairSec < 0:
		return fmt.Errorf("chaos: repair %d < 0", s.RepairSec)
	case s.BackoffSec < 0:
		return fmt.Errorf("chaos: backoff %d < 0", s.BackoffSec)
	case s.MaxBackoffSec < 0:
		return fmt.Errorf("chaos: maxbackoff %d < 0", s.MaxBackoffSec)
	case s.RestoreSec < 0:
		return fmt.Errorf("chaos: restore %g < 0", s.RestoreSec)
	case s.StragglerFrac < 0 || s.StragglerFrac > 1:
		return fmt.Errorf("chaos: stragglers %g outside [0,1]", s.StragglerFrac)
	case s.StragglerSlowdown <= 0 || s.StragglerSlowdown > 1:
		return fmt.Errorf("chaos: slowdown %g outside (0,1]", s.StragglerSlowdown)
	}
	return nil
}

// Enabled reports whether the spec can produce any fault at all. A disabled
// spec is equivalent to running without an injector.
func (s Spec) Enabled() bool {
	return s.NodeFailPerDay > 0 || s.GPUFailPerDay > 0 || s.JobCrashPerDay > 0 ||
		(s.StragglerFrac > 0 && s.StragglerSlowdown < 1)
}

// String renders the spec in the canonical key=value form ParseSpec accepts,
// omitting nothing, so ParseSpec(s.String()) round-trips exactly.
func (s Spec) String() string {
	return fmt.Sprintf(
		"seed=%d,nodefail=%s,repair=%d,gpufail=%s,jobcrash=%s,retries=%d,"+
			"backoff=%d,maxbackoff=%d,restore=%s,stragglers=%s,slowdown=%s",
		s.Seed, ftoa(s.NodeFailPerDay), s.RepairSec, ftoa(s.GPUFailPerDay),
		ftoa(s.JobCrashPerDay), s.MaxRetries, s.BackoffSec, s.MaxBackoffSec,
		ftoa(s.RestoreSec), ftoa(s.StragglerFrac), ftoa(s.StragglerSlowdown))
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// ParseSpec parses a comma-separated key=value fault spec, e.g.
//
//	"seed=7,nodefail=0.1,jobcrash=0.5,retries=3"
//
// Unset keys keep their DefaultSpec values. The literal "default" (or "")
// yields DefaultSpec unchanged; "off" yields a zero-rate spec. Keys:
// seed, nodefail, repair, gpufail, jobcrash, retries, backoff, maxbackoff,
// restore, stragglers, slowdown.
func ParseSpec(text string) (Spec, error) {
	s := DefaultSpec()
	text = strings.TrimSpace(text)
	switch text {
	case "", "default":
		return s, nil
	case "off":
		s.NodeFailPerDay, s.GPUFailPerDay, s.JobCrashPerDay = 0, 0, 0
		s.StragglerFrac = 0
		return s, nil
	}
	for _, kv := range strings.Split(text, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("chaos: %q is not key=value", kv)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
		case "nodefail":
			s.NodeFailPerDay, err = parseRate(val)
		case "repair":
			s.RepairSec, err = parseSecs(val)
		case "gpufail":
			s.GPUFailPerDay, err = parseRate(val)
		case "jobcrash":
			s.JobCrashPerDay, err = parseRate(val)
		case "retries":
			s.MaxRetries, err = strconv.Atoi(val)
		case "backoff":
			s.BackoffSec, err = parseSecs(val)
		case "maxbackoff":
			s.MaxBackoffSec, err = parseSecs(val)
		case "restore":
			s.RestoreSec, err = parseRate(val)
		case "stragglers":
			s.StragglerFrac, err = parseRate(val)
		case "slowdown":
			s.StragglerSlowdown, err = parseRate(val)
		default:
			return Spec{}, fmt.Errorf("chaos: unknown key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("chaos: bad value for %s: %v", key, err)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// parseRate parses a non-negative finite float.
func parseRate(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if f != f || f < 0 || f > 1e18 {
		return 0, fmt.Errorf("%q out of range", val)
	}
	return f, nil
}

func parseSecs(val string) (int64, error) {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Fault-kind salts for the sampling hash. Distinct constants keep the four
// Bernoulli families statistically independent under one seed.
const (
	kindNodeFail uint64 = 0xA11CE<<16 + 1
	kindGPUFail  uint64 = 0xA11CE<<16 + 2
	kindJobCrash uint64 = 0xA11CE<<16 + 3
)

// mix64 is the splitmix64 output function (same constants as
// internal/xrand), used here as a stateless hash.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll returns a deterministic uniform value in [0,1) for one (kind, entity,
// tick) trial under the spec's seed.
func (inj *Injector) roll(kind uint64, entity int, tick int64) float64 {
	h := mix64(inj.spec.Seed + 0x9e3779b97f4a7c15)
	h = mix64(h ^ kind)
	h = mix64(h ^ uint64(entity)*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(tick)*0xbf58476d1ce4e5b9)
	return float64(h>>11) / (1 << 53)
}

// prob converts a per-day rate to a per-tick Bernoulli probability.
func prob(perDay float64, dt int64) float64 {
	p := perDay * float64(dt) / 86400
	if p > 1 {
		return 1
	}
	return p
}

// Injector samples the fault schedule for one simulation run. It is bound to
// a cluster size by Bind (called from sim.New), holds only the down-node
// clock and the straggler set, and is not safe for concurrent use — each
// run gets its own Injector, exactly as each run gets its own Cluster.
type Injector struct {
	spec      Spec
	numNodes  int
	perNode   int
	downUntil map[int]int64 // node → repair-completion time
	straggler map[int]bool
}

// NewInjector returns an unbound injector for the spec.
func NewInjector(spec Spec) *Injector {
	return &Injector{spec: spec}
}

// Spec returns the injector's configuration.
func (inj *Injector) Spec() Spec { return inj.spec }

// Bind (re)attaches the injector to a cluster shape and resets all mutable
// fault state, so a reused injector starts every run from the same schedule.
// The straggler set is a deterministic function of (seed, numNodes).
func (inj *Injector) Bind(numNodes, gpusPerNode int) {
	inj.numNodes = numNodes
	inj.perNode = gpusPerNode
	inj.downUntil = make(map[int]int64)
	inj.straggler = make(map[int]bool)
	if inj.spec.StragglerFrac > 0 && inj.spec.StragglerSlowdown < 1 {
		// Rank nodes by a per-node hash and degrade the lowest-ranked
		// fraction: deterministic, order-independent, and uniform.
		want := int(float64(numNodes)*inj.spec.StragglerFrac + 0.5)
		type ranked struct {
			node int
			key  uint64
		}
		rs := make([]ranked, numNodes)
		for n := 0; n < numNodes; n++ {
			h := mix64(inj.spec.Seed ^ 0x57a661e5)
			rs[n] = ranked{n, mix64(h ^ uint64(n)*0x9e3779b97f4a7c15)}
		}
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].key != rs[j].key {
				return rs[i].key < rs[j].key
			}
			return rs[i].node < rs[j].node
		})
		for i := 0; i < want && i < numNodes; i++ {
			inj.straggler[rs[i].node] = true
		}
	}
}

// DownState returns the injector's only mutable fault state — the node →
// repair-completion clock — as a snapshot copy. The straggler set is a pure
// function of (seed, cluster shape) and is rebuilt by Bind, so it needs no
// serialization.
func (inj *Injector) DownState() map[int]int64 {
	if len(inj.downUntil) == 0 {
		return nil
	}
	out := make(map[int]int64, len(inj.downUntil))
	for n, until := range inj.downUntil {
		out[n] = until
	}
	return out
}

// SetDownState overwrites the down-node clock from a snapshot. Call after
// Bind (Bind resets the clock).
func (inj *Injector) SetDownState(m map[int]int64) {
	inj.downUntil = make(map[int]int64, len(m))
	for n, until := range m {
		inj.downUntil[n] = until
	}
}

// Repairs returns (and forgets) the sorted set of nodes whose repair window
// has elapsed by now.
func (inj *Injector) Repairs(now int64) []int {
	if len(inj.downUntil) == 0 {
		return nil
	}
	var out []int
	for n, until := range inj.downUntil {
		if until <= now {
			out = append(out, n)
		}
	}
	for _, n := range out {
		delete(inj.downUntil, n)
	}
	sort.Ints(out)
	return out
}

// NodeCrashes samples this tick's node crashes among currently-up nodes,
// marks them down until now+RepairSec, and returns them sorted.
func (inj *Injector) NodeCrashes(now, dt int64) []int {
	if inj.spec.NodeFailPerDay <= 0 || inj.numNodes == 0 {
		return nil
	}
	p := prob(inj.spec.NodeFailPerDay, dt)
	var out []int
	for n := 0; n < inj.numNodes; n++ {
		if _, down := inj.downUntil[n]; down {
			continue
		}
		if inj.roll(kindNodeFail, n, now) < p {
			inj.downUntil[n] = now + inj.spec.RepairSec
			out = append(out, n)
		}
	}
	return out
}

// Read-only peeks for the event engine (internal/sim's discrete-event mode):
// it scans the deterministic fault schedule ahead of the clock to find the
// next tick it must execute. Peeks must not mutate injector state — at the
// fire tick the regular sampling methods run and draw the same hashes.

// MinDownUntil returns the earliest repair-completion time among down nodes.
func (inj *Injector) MinDownUntil() (int64, bool) {
	if len(inj.downUntil) == 0 {
		return 0, false
	}
	first := true
	var min int64
	for _, until := range inj.downUntil {
		if first || until < min {
			min = until
			first = false
		}
	}
	return min, true
}

// AnyNodeCrash reports whether NodeCrashes(now, dt) would return a non-empty
// set, without marking anything down.
func (inj *Injector) AnyNodeCrash(now, dt int64) bool {
	if inj.spec.NodeFailPerDay <= 0 || inj.numNodes == 0 {
		return false
	}
	p := prob(inj.spec.NodeFailPerDay, dt)
	for n := 0; n < inj.numNodes; n++ {
		if _, down := inj.downUntil[n]; down {
			continue
		}
		if inj.roll(kindNodeFail, n, now) < p {
			return true
		}
	}
	return false
}

// AnyGPUFailure reports whether GPUFailures(now, dt) would return a fault
// the caller considers observable (resident jobs on an up node — idle-GPU
// faults have no effect and must not wake the engine).
func (inj *Injector) AnyGPUFailure(now, dt int64, observable func(cluster.GPUID) bool) bool {
	if inj.spec.GPUFailPerDay <= 0 || inj.numNodes == 0 || inj.perNode == 0 {
		return false
	}
	p := prob(inj.spec.GPUFailPerDay, dt)
	for n := 0; n < inj.numNodes; n++ {
		if _, down := inj.downUntil[n]; down {
			continue
		}
		for i := 0; i < inj.perNode; i++ {
			if inj.roll(kindGPUFail, n*inj.perNode+i, now) < p &&
				observable(cluster.GPUID{Node: n, Index: i}) {
				return true
			}
		}
	}
	return false
}

// AnyJobCrash reports whether JobCrashes(now, dt, ids) would be non-empty.
func (inj *Injector) AnyJobCrash(now, dt int64, ids []int) bool {
	if inj.spec.JobCrashPerDay <= 0 || len(ids) == 0 {
		return false
	}
	p := prob(inj.spec.JobCrashPerDay, dt)
	for _, id := range ids {
		if inj.roll(kindJobCrash, id, now) < p {
			return true
		}
	}
	return false
}

// GPUFailures samples this tick's transient GPU faults on up nodes, in
// (node, index) order.
func (inj *Injector) GPUFailures(now, dt int64) []cluster.GPUID {
	if inj.spec.GPUFailPerDay <= 0 || inj.numNodes == 0 || inj.perNode == 0 {
		return nil
	}
	p := prob(inj.spec.GPUFailPerDay, dt)
	var out []cluster.GPUID
	for n := 0; n < inj.numNodes; n++ {
		if _, down := inj.downUntil[n]; down {
			continue
		}
		for i := 0; i < inj.perNode; i++ {
			if inj.roll(kindGPUFail, n*inj.perNode+i, now) < p {
				out = append(out, cluster.GPUID{Node: n, Index: i})
			}
		}
	}
	return out
}

// JobCrashes samples crash-on-step faults over the given job ids (which the
// caller supplies sorted — the returned slice preserves that order). Because
// each (job, tick) trial is an independent hash, the result does not depend
// on which other jobs happen to be running.
func (inj *Injector) JobCrashes(now, dt int64, ids []int) []int {
	if inj.spec.JobCrashPerDay <= 0 || len(ids) == 0 {
		return nil
	}
	p := prob(inj.spec.JobCrashPerDay, dt)
	var out []int
	for _, id := range ids {
		if inj.roll(kindJobCrash, id, now) < p {
			out = append(out, id)
		}
	}
	return out
}

// SpeedFactor returns the straggler degradation for a node (1.0 = nominal).
func (inj *Injector) SpeedFactor(node int) float64 {
	if inj == nil || !inj.straggler[node] {
		return 1
	}
	return inj.spec.StragglerSlowdown
}

// Backoff returns the requeue delay for a job's restarts-th restart
// (1-based): BackoffSec doubled per prior restart, capped at MaxBackoffSec.
func (s Spec) Backoff(restarts int) int64 {
	if s.BackoffSec <= 0 {
		return 0
	}
	shift := restarts - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 30 {
		shift = 30
	}
	d := s.BackoffSec << uint(shift)
	if s.MaxBackoffSec > 0 && d > s.MaxBackoffSec {
		d = s.MaxBackoffSec
	}
	return d
}
