package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/workload"
)

// smallVenus is a scaled-down Venus for fast tests.
func smallVenus() GenSpec {
	s := Venus()
	s.NumJobs = 3000
	return s
}

func TestEmitBasicShape(t *testing.T) {
	g := NewGenerator(smallVenus())
	tr := g.Emit(0)
	if len(tr.Jobs) != 3000 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	if tr.Cluster.TotalGPUs() != 1080 {
		t.Fatalf("cluster GPUs = %d, want 1080", tr.Cluster.TotalGPUs())
	}
	if len(tr.Cluster.VCs) != 15 {
		t.Fatalf("VCs = %d", len(tr.Cluster.VCs))
	}
	// Sorted by submit.
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Submit < tr.Jobs[i-1].Submit {
			t.Fatal("jobs not sorted by submit time")
		}
	}
	// All inside the window.
	for _, j := range tr.Jobs {
		if j.Submit < 0 || j.Submit >= int64(tr.Days)*86400 {
			t.Fatalf("submit %d outside %d days", j.Submit, tr.Days)
		}
		if j.Duration < 10 {
			t.Fatalf("duration %d too small", j.Duration)
		}
		if !j.Config.Valid() {
			t.Fatalf("invalid config %v", j.Config)
		}
	}
}

func TestMeanDurationCalibrated(t *testing.T) {
	g := NewGenerator(smallVenus())
	tr := g.Emit(0)
	var sum float64
	for _, j := range tr.Jobs {
		sum += float64(j.Duration)
	}
	mean := sum / float64(len(tr.Jobs))
	if math.Abs(mean-5419)/5419 > 0.1 {
		t.Fatalf("mean duration %v, want ≈5419", mean)
	}
}

func TestSmallJobSkew(t *testing.T) {
	// §2.2: >95 % of jobs fit within one 8-GPU node.
	g := NewGenerator(smallVenus())
	tr := g.Emit(0)
	small := 0
	for _, j := range tr.Jobs {
		if j.GPUs <= 8 {
			small++
		}
	}
	if frac := float64(small) / float64(len(tr.Jobs)); frac < 0.93 {
		t.Fatalf("only %.1f%% small jobs", frac*100)
	}
}

func TestDebugJobMajority(t *testing.T) {
	g := NewGenerator(smallVenus())
	tr := g.Emit(0)
	short := 0
	for _, j := range tr.Jobs {
		if j.Duration <= 900 {
			short++
		}
	}
	frac := float64(short) / float64(len(tr.Jobs))
	if frac < 0.4 || frac > 0.7 {
		t.Fatalf("short-job fraction %.2f outside the production band", frac)
	}
}

func TestRecurrence(t *testing.T) {
	// ~90 % of submissions reuse a template: distinct name prefixes must be
	// far fewer than jobs, and repeated prefixes must dominate.
	g := NewGenerator(smallVenus())
	tr := g.Emit(0)
	prefix := func(name string) string {
		i := strings.LastIndex(name, "-v")
		if i < 0 {
			return name
		}
		return name[:i]
	}
	counts := map[string]int{}
	for _, j := range tr.Jobs {
		counts[prefix(j.Name)]++
	}
	if len(counts) > len(tr.Jobs)/3 {
		t.Fatalf("%d distinct templates for %d jobs — recurrence broken", len(counts), len(tr.Jobs))
	}
	recur := 0
	for _, c := range counts {
		if c > 1 {
			recur += c
		}
	}
	if frac := float64(recur) / float64(len(tr.Jobs)); frac < 0.8 {
		t.Fatalf("recurrent fraction %.2f, want ≥0.8", frac)
	}
}

func TestRecurrentJobsShareConfigAndGPUs(t *testing.T) {
	g := NewGenerator(smallVenus())
	tr := g.Emit(0)
	type key struct {
		cfg  string
		gpus int
	}
	byTemplate := map[string]key{}
	for _, j := range tr.Jobs {
		p := j.Name[:strings.LastIndex(j.Name, "-v")]
		k := key{j.Config.String(), j.GPUs}
		if prev, ok := byTemplate[p]; ok && prev != k {
			t.Fatalf("template %s changed identity: %v vs %v", p, prev, k)
		}
		byTemplate[p] = k
	}
}

func TestDiurnalPattern(t *testing.T) {
	g := NewGenerator(smallVenus())
	tr := g.Emit(0)
	byHour := make([]int, 24)
	for _, j := range tr.Jobs {
		byHour[(j.Submit/3600)%24]++
	}
	night := byHour[2] + byHour[3] + byHour[4]
	day := byHour[10] + byHour[14] + byHour[15]
	if day < 3*night {
		t.Fatalf("no diurnal pattern: day=%d night=%d", day, night)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := NewGenerator(smallVenus()).Emit(0)
	b := NewGenerator(smallVenus()).Emit(0)
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("different job counts")
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Name != jb.Name || ja.Submit != jb.Submit || ja.Duration != jb.Duration {
			t.Fatalf("job %d differs between identical generators", i)
		}
	}
}

func TestMultiMonthSharesPopulation(t *testing.T) {
	g := NewGenerator(smallVenus())
	m1 := g.Emit(2000)
	m2 := g.Emit(2000)
	prefix := func(name string) string { return name[:strings.LastIndex(name, "-v")] }
	p1 := map[string]bool{}
	for _, j := range m1.Jobs {
		p1[prefix(j.Name)] = true
	}
	overlap := 0
	for _, j := range m2.Jobs {
		if p1[prefix(j.Name)] {
			overlap++
		}
	}
	if frac := float64(overlap) / float64(len(m2.Jobs)); frac < 0.5 {
		t.Fatalf("month-2 recurrence into month-1 templates only %.2f", frac)
	}
}

func TestDistributedJobsFitVC(t *testing.T) {
	g := NewGenerator(smallVenus())
	tr := g.Emit(0)
	nodesOf := map[string]int{}
	for _, vc := range tr.Cluster.VCs {
		nodesOf[vc.Name] = vc.Nodes
	}
	for _, j := range tr.Jobs {
		need := (j.GPUs + 7) / 8
		if need > nodesOf[j.VC] {
			t.Fatalf("%v needs %d nodes but VC %s has %d", j, need, j.VC, nodesOf[j.VC])
		}
	}
}

func TestUtilLevelsShiftMix(t *testing.T) {
	mean := func(u UtilLevel) float64 {
		s := smallVenus()
		s.Util = u
		tr := NewGenerator(s).Emit(0)
		sum := 0.0
		for _, j := range tr.Jobs {
			sum += j.Config.Profile().GPUUtil
		}
		return sum / float64(len(tr.Jobs))
	}
	l, m, h := mean(UtilLow), mean(UtilMedium), mean(UtilHigh)
	if !(l < m && m < h) {
		t.Fatalf("util means not ordered: L=%v M=%v H=%v", l, m, h)
	}
}

func TestPresets(t *testing.T) {
	for _, spec := range []GenSpec{Venus(), Saturn(), Philly()} {
		g := NewGenerator(spec)
		if g.ClusterSpec().TotalGPUs() != spec.Nodes*8 {
			t.Fatalf("%s GPUs = %d", spec.Name, g.ClusterSpec().TotalGPUs())
		}
	}
	if len(NewGenerator(Philly()).ClusterSpec().VCs) != 1 {
		t.Fatal("Philly must be a single VC")
	}
}

func TestStaticTestbed(t *testing.T) {
	tr := StaticTestbed(100, 1)
	if len(tr.Jobs) != 100 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	for _, j := range tr.Jobs {
		if j.Submit != 0 {
			t.Fatal("static trace jobs must all arrive at t=0")
		}
		if j.GPUs > 8 {
			t.Fatal("testbed jobs must fit one node")
		}
	}
	if tr.Cluster.TotalGPUs() != 32 {
		t.Fatalf("testbed GPUs = %d", tr.Cluster.TotalGPUs())
	}
}

func TestContinuousTestbed(t *testing.T) {
	tr := ContinuousTestbed(120, 180, 2)
	if len(tr.Jobs) != 120 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	increasing := false
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Submit > tr.Jobs[0].Submit {
			increasing = true
		}
	}
	if !increasing {
		t.Fatal("continuous trace has no arrival spread")
	}
}

func TestPolluxIntensityScaling(t *testing.T) {
	slow := PolluxTrace(0.5, 3)
	fast := PolluxTrace(2.5, 3)
	if len(slow.Jobs) != 160 || len(fast.Jobs) != 160 {
		t.Fatal("pollux trace must have 160 jobs")
	}
	spanSlow := slow.Jobs[len(slow.Jobs)-1].Submit
	spanFast := fast.Jobs[len(fast.Jobs)-1].Submit
	if spanFast*3 > spanSlow {
		t.Fatalf("intensity scaling wrong: slow span %d, fast span %d", spanSlow, spanFast)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := NewGenerator(smallVenus())
	tr := g.Emit(200)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	jobs, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(tr.Jobs) {
		t.Fatalf("round trip count %d vs %d", len(jobs), len(tr.Jobs))
	}
	for i := range jobs {
		a, b := jobs[i], tr.Jobs[i]
		if a.ID != b.ID || a.Name != b.Name || a.Submit != b.Submit ||
			a.Duration != b.Duration || a.Config != b.Config || a.GPUs != b.GPUs {
			t.Fatalf("job %d mismatch after round trip", i)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("nope,x\n1,2\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	bad := "id,name,user,vc,gpus,submit,duration,model,batch,amp\n1,a,u,v,x,0,10,ResNet-18,64,0\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric gpus accepted")
	}
	unknown := "id,name,user,vc,gpus,submit,duration,model,batch,amp\n1,a,u,v,1,0,10,NoModel,64,0\n"
	if _, err := ReadCSV(strings.NewReader(unknown)); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestLoadIsFeasible(t *testing.T) {
	// The emitted month must not demand more GPU-time than the cluster has;
	// otherwise queues grow without bound and no scheduler can finish.
	g := NewGenerator(smallVenus())
	tr := g.Emit(0)
	var demand float64
	for _, j := range tr.Jobs {
		demand += float64(j.Duration) * float64(j.GPUs)
	}
	capacity := float64(tr.Cluster.TotalGPUs()) * float64(tr.Days) * 86400
	if demand > 0.9*capacity {
		t.Fatalf("offered load %.0f%% of capacity", demand/capacity*100)
	}
}

// TestEmitBytesPinned pins every field of every emitted job over the five
// evaluation worlds at 0.95 offered load (three months each at a fifth of
// their Table 2 size) plus one 200,000-job Helios month. The digest was
// generated while Zipf and weighted draws still summed their weights per
// draw, so it proves the prebuilt sampling tables draw the same jobs.
func TestEmitBytesPinned(t *testing.T) {
	// A new field must join appendJob before these counts move.
	for _, c := range []struct {
		v    any
		want int
	}{{job.Job{}, 22}, {workload.Config{}, 3}, {workload.Profile{}, 4}} {
		if n := reflect.TypeOf(c.v).NumField(); n != c.want {
			t.Fatalf("%T has %d fields; appendJob covers %d", c.v, n, c.want)
		}
	}
	lowVenus, highSaturn := Venus(), Saturn()
	lowVenus.Util, highSaturn.Util = UtilLow, UtilHigh
	h := fnv.New64a()
	for _, spec := range []GenSpec{Venus(), Saturn(), Philly(), lowVenus, highSaturn} {
		spec.TargetLoad = 0.95
		g := NewGenerator(spec)
		for m := 0; m < 3; m++ {
			hashTrace(h, g.Emit(spec.NumJobs/5))
		}
	}
	hashTrace(h, NewGenerator(Helios()).Emit(200_000))
	const want = 0xa781c705d324325d
	if got := h.Sum64(); got != want {
		t.Fatalf("emitted traces hash to %#016x, want %#016x", got, uint64(want))
	}
}

func hashTrace(h hash.Hash64, tr *Trace) {
	fmt.Fprintf(h, "%s %d %+v\n", tr.Name, tr.Days, tr.Cluster)
	var buf []byte
	for _, j := range tr.Jobs {
		buf = appendJob(buf[:0], j)
		h.Write(buf)
	}
}

// appendJob encodes every field of j, strings length-prefixed.
func appendJob(b []byte, j *job.Job) []byte {
	le := binary.LittleEndian
	str := func(b []byte, s string) []byte {
		return append(le.AppendUint64(b, uint64(len(s))), s...)
	}
	i64 := func(b []byte, v int64) []byte { return le.AppendUint64(b, uint64(v)) }
	f64 := func(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }
	flag := func(b []byte, v bool) []byte {
		if v {
			return append(b, 1)
		}
		return append(b, 0)
	}
	b = i64(b, int64(j.ID))
	b = str(b, j.Name)
	b = str(b, j.User)
	b = str(b, j.VC)
	b = i64(b, int64(j.GPUs))
	b = i64(b, j.Submit)
	b = flag(b, j.AMP)
	b = i64(b, j.Duration)
	b = i64(b, int64(j.Config.Model))
	b = i64(b, int64(j.Config.BatchSize))
	b = flag(b, j.Config.AMP)
	b = flag(b, j.Profiled)
	b = f64(b, j.Profile.GPUUtil)
	b = f64(b, j.Profile.GPUMemMB)
	b = f64(b, j.Profile.GPUMemUtil)
	b = flag(b, j.Profile.AMP)
	b = i64(b, int64(j.State))
	b = f64(b, j.RemainingWork)
	b = i64(b, j.FirstStart)
	b = i64(b, j.Finish)
	b = f64(b, j.RunTime)
	b = i64(b, int64(j.Preemptions))
	b = f64(b, j.ColdStart)
	b = f64(b, j.AttainedGPUT)
	b = i64(b, int64(j.Restarts))
	b = i64(b, j.NextEligible)
	return f64(b, j.CheckpointedWork)
}

// BenchmarkEmit builds a Saturn generator and emits two full months from it,
// the history and evaluation months of a world build, and reports the cost
// per emitted job.
func BenchmarkEmit(b *testing.B) {
	jobs := 0
	for i := 0; i < b.N; i++ {
		g := NewGenerator(Saturn())
		jobs += len(g.Emit(0).Jobs) + len(g.Emit(0).Jobs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobs), "ns/job")
}
