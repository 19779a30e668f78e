package chaos

import (
	"strings"
	"testing"
)

func TestParseSpecDefaults(t *testing.T) {
	for _, text := range []string{"", "default"} {
		got, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got != DefaultSpec() {
			t.Fatalf("ParseSpec(%q) = %+v, want DefaultSpec", text, got)
		}
	}
	off, err := ParseSpec("off")
	if err != nil {
		t.Fatal(err)
	}
	if off.Enabled() {
		t.Fatalf("off spec reports Enabled: %+v", off)
	}
}

func TestParseSpecOverrides(t *testing.T) {
	s, err := ParseSpec("seed=7, nodefail=0.5 ,jobcrash=2,retries=-1,backoff=10,slowdown=0.25,stragglers=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.NodeFailPerDay != 0.5 || s.JobCrashPerDay != 2 ||
		s.MaxRetries != -1 || s.BackoffSec != 10 ||
		s.StragglerSlowdown != 0.25 || s.StragglerFrac != 0.5 {
		t.Fatalf("overrides not applied: %+v", s)
	}
	// Unset keys keep defaults.
	if s.RepairSec != DefaultSpec().RepairSec || s.RestoreSec != DefaultSpec().RestoreSec {
		t.Fatalf("defaults clobbered: %+v", s)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, text := range []string{
		"nodefail",       // not key=value
		"bogus=1",        // unknown key
		"nodefail=-1",    // negative rate
		"nodefail=abc",   // unparseable
		"slowdown=0",     // outside (0,1]
		"slowdown=1.5",   // outside (0,1]
		"stragglers=2",   // outside [0,1]
		"repair=-5",      // negative window
		"seed=-1",        // seeds are unsigned
		"nodefail=NaN",   // non-finite
		"jobcrash=1e300", // absurd rate
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted", text)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	specs := []Spec{
		DefaultSpec(),
		{Seed: 42, NodeFailPerDay: 0.125, RepairSec: 60, GPUFailPerDay: 0.01,
			JobCrashPerDay: 3.5, MaxRetries: -1, BackoffSec: 1, MaxBackoffSec: 7200,
			RestoreSec: 10.5, StragglerFrac: 0.25, StragglerSlowdown: 0.8},
	}
	for _, want := range specs {
		got, err := ParseSpec(want.String())
		if err != nil {
			t.Fatalf("round-trip parse of %q: %v", want.String(), err)
		}
		if got != want {
			t.Fatalf("round trip: %+v != %+v", got, want)
		}
	}
}

func TestBackoffExponentialWithCap(t *testing.T) {
	s := Spec{BackoffSec: 100, MaxBackoffSec: 1000}
	want := []int64{100, 200, 400, 800, 1000, 1000}
	for i, w := range want {
		if got := s.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
	if got := (Spec{}).Backoff(3); got != 0 {
		t.Fatalf("zero-base backoff = %d, want 0", got)
	}
	// Huge restart counts must not overflow the shift.
	if got := s.Backoff(100); got != 1000 {
		t.Fatalf("Backoff(100) = %d, want cap 1000", got)
	}
}

// collectSchedule replays the injector tick by tick, keeping its own repair
// clock the way the simulator does, and returns a compact rendering of every
// fault it fires.
func collectSchedule(spec Spec, nodes, perNode int, ticks int, dt int64) string {
	inj := NewInjector(spec, nodes, perNode)
	repairAt := map[int]int64{}
	down := func(n int) bool { _, ok := repairAt[n]; return ok }
	jobs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	var sb strings.Builder
	for i := 1; i <= ticks; i++ {
		now := int64(i) * dt
		for n := 0; n < nodes; n++ {
			if at, ok := repairAt[n]; ok && at <= now {
				delete(repairAt, n)
				sb.WriteString("R")
				sb.WriteByte(byte('0' + n%10))
			}
		}
		for _, n := range inj.NodeCrashes(now, dt, down) {
			repairAt[n] = now + spec.RepairSec
			sb.WriteString("N")
			sb.WriteByte(byte('0' + n%10))
		}
		for _, g := range inj.GPUFailures(now, dt, down) {
			sb.WriteString("G")
			sb.WriteByte(byte('0' + (g.Node*perNode+g.Index)%10))
		}
		for _, id := range inj.JobCrashes(now, dt, jobs) {
			sb.WriteString("J")
			sb.WriteByte(byte('0' + id%10))
		}
	}
	return sb.String()
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	spec := DefaultSpec()
	spec.NodeFailPerDay = 50
	spec.GPUFailPerDay = 10
	spec.JobCrashPerDay = 40
	spec.RepairSec = 120

	a := collectSchedule(spec, 4, 8, 500, 30)
	b := collectSchedule(spec, 4, 8, 500, 30)
	if a == "" {
		t.Fatal("schedule empty — rates too low for the test to mean anything")
	}
	if a != b {
		t.Fatal("same seed produced different fault schedules")
	}

	spec2 := spec
	spec2.Seed = spec.Seed + 1
	if c := collectSchedule(spec2, 4, 8, 500, 30); c == a {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestDownNodeDrawsNothing: at rates that fault every entity every tick, a
// node the caller reports down neither crashes nor takes GPU faults, and
// the nodes still up do both. (The repair lifecycle around it is the
// simulator's; see TestCrashRepairLifecycle in internal/sim.)
func TestDownNodeDrawsNothing(t *testing.T) {
	spec := DefaultSpec()
	spec.NodeFailPerDay = 86400 // p = 1 every tick
	spec.GPUFailPerDay = 86400
	inj := NewInjector(spec, 2, 8)
	down := func(n int) bool { return n == 0 }

	if got := inj.NodeCrashes(30, 30, down); len(got) != 1 || got[0] != 1 {
		t.Fatalf("crashes = %v, want only node 1", got)
	}
	faults := inj.GPUFailures(30, 30, down)
	if len(faults) != 8 {
		t.Fatalf("%d GPU faults, want node 1's 8", len(faults))
	}
	for _, g := range faults {
		if g.Node != 1 {
			t.Fatalf("GPU fault on down node: %v", g)
		}
	}
}

func TestStragglerSelection(t *testing.T) {
	spec := DefaultSpec()
	spec.StragglerFrac = 0.25
	spec.StragglerSlowdown = 0.5
	inj := NewInjector(spec, 8, 8)
	slow := 0
	for n := 0; n < 8; n++ {
		switch inj.SpeedFactor(n) {
		case 0.5:
			slow++
		case 1:
		default:
			t.Fatalf("node %d speed %v", n, inj.SpeedFactor(n))
		}
	}
	if slow != 2 {
		t.Fatalf("%d stragglers of 8 nodes, want 2 (frac 0.25)", slow)
	}
	// Selection is a pure function of (seed, cluster size).
	inj2 := NewInjector(spec, 8, 8)
	for n := 0; n < 8; n++ {
		if inj.SpeedFactor(n) != inj2.SpeedFactor(n) {
			t.Fatal("straggler selection not deterministic")
		}
	}
}

func TestRateScalesWithTickSize(t *testing.T) {
	// The per-tick probability must scale with dt so fault density is
	// tick-size independent: counting faults at dt=30 vs dt=60 over the same
	// horizon should land within a factor of ~1.5 of each other.
	spec := DefaultSpec()
	spec.JobCrashPerDay = 100
	inj := NewInjector(spec, 1, 8)
	jobs := []int{1, 2, 3, 4}
	count := func(dt int64) int {
		total := 0
		for now := dt; now <= 86400; now += dt {
			total += len(inj.JobCrashes(now, dt, jobs))
		}
		return total
	}
	c30, c60 := count(30), count(60)
	if c30 == 0 || c60 == 0 {
		t.Fatalf("no faults sampled: c30=%d c60=%d", c30, c60)
	}
	ratio := float64(c30) / float64(c60)
	if ratio < 0.66 || ratio > 1.5 {
		t.Fatalf("fault density tick-dependent: %d @30s vs %d @60s", c30, c60)
	}
}
