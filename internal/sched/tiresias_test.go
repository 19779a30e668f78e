package sched

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stableSortBy is the order every baseline round once sorted by: the key
// ascending with (submit, id) tiebreaks, the key recomputed inside each
// comparison. rankBy must give its order for any keys.
func stableSortBy(jobs []*job.Job, key func(*job.Job) float64) {
	sort.SliceStable(jobs, func(a, b int) bool {
		ka, kb := key(jobs[a]), key(jobs[b])
		if ka != kb {
			return ka < kb
		}
		if jobs[a].Submit != jobs[b].Submit {
			return jobs[a].Submit < jobs[b].Submit
		}
		return jobs[a].ID < jobs[b].ID
	})
}

// oracleTiresias is Tiresias with the round it had before it ranked each
// candidate once: every VC with a waiting or a running job is walked, in
// sorted map-key order, the LAS queue is recomputed inside every comparison,
// and the desired set is a map.
type oracleTiresias struct{ *Tiresias }

func (o oracleTiresias) Tick(env *sim.Env) {
	t := o.Tiresias
	now := env.Now()
	// Each VC's candidates: its queue, then its running jobs.
	groups := byVC(env.Running())
	for _, q := range env.Queues() {
		groups[q.VC] = append(slices.Clone(q.Jobs), groups[q.VC]...)
	}
	cl := env.Cluster()

	for _, vc := range sortedVCs(groups) {
		jobs := groups[vc]
		// Priority order: (queue, submit).
		stableSortBy(jobs, func(j *job.Job) float64 {
			return float64(t.queueOf(j, now))*1e12 + float64(j.Submit)
		})

		// Capacity-greedy desired set.
		capacity := vcGPUs(cl, vc)
		desired := map[int]bool{}
		for _, j := range jobs {
			if j.GPUs <= capacity {
				desired[j.ID] = true
				capacity -= j.GPUs
			}
		}

		minUnplaced := 1 << 30
		for _, j := range jobs {
			if desired[j.ID] && j.State != job.Running {
				if q := t.queueOf(j, now); q < minUnplaced {
					minUnplaced = q
				}
			}
		}
		for _, j := range jobs {
			if j.State == job.Running && !desired[j.ID] {
				if t.queueOf(j, now) <= minUnplaced {
					continue
				}
				if started, ok := t.startedAt[j.ID]; ok && now-started < minRunQuantumSec {
					continue
				}
				if env.Preempt(j, preemptOverheadSec) {
					t.stoppedAt[j.ID] = now
				}
			}
		}
		for _, j := range jobs {
			if j.State != job.Running && desired[j.ID] {
				if env.StartExclusive(j) {
					t.startedAt[j.ID] = now
				}
			}
		}
	}
}

// groupByName is Tiresias's grouping of the running jobs before it read VC
// positions: a binary search over the queues' VC names for every running
// job, every round.
func groupByName(queues []sim.Queue, running []*job.Job) [][]*job.Job {
	out := make([][]*job.Job, len(queues))
	for _, j := range running {
		if k, ok := slices.BinarySearchFunc(queues, j.VC, func(q sim.Queue, vc string) int {
			return strings.Compare(q.VC, vc)
		}); ok {
			out[k] = append(out[k], j)
		}
	}
	return out
}

// roundProbe measures what a world asks of the round: the most jobs that
// waited visibly at once, and the rounds the skipped-VC rule is exercised at
// its edge — a VC with running jobs whose waiting jobs are all hidden by
// requeue backoff, so Queues leaves the VC out. Every round it also holds
// the grouping by VC position to groupByName, and counts the rounds where
// that grouped a running job into a queue other than the first.
type roundProbe struct {
	*Tiresias
	deepest, hidden, grouped int
	t                        *testing.T
}

func (p *roundProbe) Tick(env *sim.Env) {
	visible, running := map[string]bool{}, map[string]bool{}
	waiting := 0
	queues := env.Queues()
	for _, q := range queues {
		visible[q.VC] = true
		waiting += len(q.Jobs)
	}
	p.deepest = max(p.deepest, waiting)
	if len(queues) > 0 {
		want := groupByName(queues, env.Running())
		p.group(queues, env.Running())
		for k := range want {
			if !slices.Equal(p.running[k], want[k]) {
				p.t.Fatalf("t=%d: queue %s groups running jobs %v, by name %v",
					env.Now(), queues[k].VC, jobIDs(p.running[k]), jobIDs(want[k]))
			}
			if k > 0 && len(want[k]) > 0 {
				p.grouped++
			}
		}
	}
	for _, j := range env.Running() {
		running[j.VC] = true
	}
	for _, j := range env.AllJobs() {
		waiting := j.State == job.Pending || j.State == job.Queued
		if waiting && j.NextEligible > env.Now() && running[j.VC] && !visible[j.VC] {
			p.hidden++
			break
		}
	}
	p.Tiresias.Tick(env)
}

// TestTiresiasRoundMatchesOracle: ranking each candidate once, walking only
// the VCs with a visible waiting job and keeping the desired set beside the
// candidates makes the decisions the per-comparison round made, on a HOL
// world, the golden Venus-shaped world, a Helios-shaped deep queue, faults
// with requeue backoff, and a resume from a mid-run snapshot: byte-equal
// decision traces and equal Results.
func TestTiresiasRoundMatchesOracle(t *testing.T) {
	golden := trace.Venus()
	golden.Name, golden.Nodes, golden.NumVCs, golden.NumJobs = "golden", 8, 2, 600
	golden.AvgDuration, golden.Days = 3000, 3
	g := trace.NewGenerator(golden)
	g.Emit(600) // the golden world's history
	venus := g.Emit(450)

	deep := trace.Helios()
	deep.Name, deep.Nodes, deep.NumVCs, deep.NumJobs = "deep", 12, 6, 4000
	deep.Days, deep.TargetLoad = 1, 30
	helios := trace.NewGenerator(deep).Emit(0)

	faulty := trace.Venus()
	faulty.Name, faulty.Nodes, faulty.NumVCs, faulty.NumJobs = "faulty", 8, 4, 600
	faulty.AvgDuration, faulty.Days = 3000, 3
	faults := trace.NewGenerator(faulty).Emit(0)
	withChaos := func(o sim.Options) sim.Options {
		cs := chaos.DefaultSpec()
		cs.NodeFailPerDay, cs.GPUFailPerDay, cs.JobCrashPerDay = 4, 0.5, 24
		cs.MaxRetries, cs.BackoffSec = 6, 900
		o.Chaos = &cs
		return o
	}

	world := sim.Options{Tick: 60, SchedulerEvery: 60}
	cases := []struct {
		name string
		tr   *trace.Trace
		opts func() sim.Options
	}{
		{"hol", holTrace(), func() sim.Options { return sim.Options{Tick: 10, SchedulerEvery: 30} }},
		{"golden", venus, func() sim.Options { return world }},
		{"helios-deep", helios, func() sim.Options { return world }},
		{"chaos-backoff", faults, func() sim.Options { return withChaos(world) }},
	}
	run := func(tr *trace.Trace, s sim.Scheduler, opts sim.Options) (*sim.Result, []byte) {
		rec := dtrace.New()
		opts.DecisionTrace = rec
		res := sim.New(tr, s, opts).Run()
		return res, jsonl(t, rec)
	}
	for _, tc := range cases {
		want, wantTrace := run(tc.tr, oracleTiresias{NewTiresias()}, tc.opts())
		probe := &roundProbe{Tiresias: NewTiresias(), t: t}
		got, gotTrace := run(tc.tr, probe, tc.opts())
		sameRun(t, tc.name, got, gotTrace, want, wantTrace)
		if tc.name == "helios-deep" && probe.deepest < 500 {
			t.Fatalf("%s: at most %d jobs waited at once; the queue is not deep", tc.name, probe.deepest)
		}
		if tc.name == "chaos-backoff" && probe.hidden == 0 {
			t.Fatalf("%s: no round had a VC with running jobs and only hidden waiting ones", tc.name)
		}
		if tc.name != "hol" && probe.grouped == 0 {
			t.Fatalf("%s: no round grouped a running job into a queue other than the first", tc.name)
		}
	}

	// Resume: one mid-run snapshot, finished by each round.
	rec := dtrace.New()
	opts := withChaos(world)
	opts.DecisionTrace = rec
	mid := sim.New(faults, NewTiresias(), opts)
	if mid.RunUntil(int64(faulty.Days) * 86400 / 2) {
		t.Fatal("run completed before the snapshot")
	}
	var snap bytes.Buffer
	if err := mid.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	resume := func(s sim.Scheduler) (*sim.Result, []byte) {
		rec := dtrace.New()
		opts := withChaos(world)
		opts.DecisionTrace = rec
		r, err := sim.Resume(faults, s, opts, bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return r.Run(), jsonl(t, rec)
	}
	want, wantTrace := resume(oracleTiresias{NewTiresias()})
	got, gotTrace := resume(NewTiresias())
	sameRun(t, "resume", got, gotTrace, want, wantTrace)
}

func jsonl(t *testing.T, rec *dtrace.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func sameRun(t *testing.T, name string, got *sim.Result, gotTrace []byte, want *sim.Result, wantTrace []byte) {
	t.Helper()
	if !bytes.Equal(gotTrace, wantTrace) {
		lg, lw := bytes.Split(gotTrace, []byte("\n")), bytes.Split(wantTrace, []byte("\n"))
		i := 0
		for i < min(len(lg), len(lw)) && bytes.Equal(lg[i], lw[i]) {
			i++
		}
		t.Fatalf("%s: decision trace (%d lines) differs from the oracle's (%d) at line %d:\n  %s\noracle:\n  %s",
			name, len(lg), len(lw), i+1, at(lg, i), at(lw, i))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result\n  %s\nthe oracle's\n  %s", name, got.Summary(), want.Summary())
	}
	if len(bytes.TrimSpace(gotTrace)) == 0 {
		t.Fatalf("%s: empty decision trace", name)
	}
}

func at(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return []byte("<end>")
}

func jobIDs(js []*job.Job) []int {
	out := make([]int, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}
