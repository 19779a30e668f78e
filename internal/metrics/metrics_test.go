package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("jobs_total", "jobs seen")
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Set(6.5)
	if got := g.Value(); got != 6.5 {
		t.Fatalf("gauge = %v, want 6.5", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.SetClock(time.Now)
	c := r.Counter("x", "")
	c.Inc()
	g := r.Gauge("y", "")
	g.Set(1)
	h := r.Histogram("z", "", nil)
	h.Observe(1)
	cv := r.CounterVec("cv", "", "l")
	cv.With("a").Inc()
	gv := r.GaugeVec("gv", "", "l")
	gv.With("a").Set(1)
	hv := r.HistogramVec("hv", "", nil, "l")
	hv.With("a").Observe(1)
	tm := r.StartTimer(h)
	if d := tm.Stop(); d != 0 {
		t.Fatalf("inert timer observed %v", d)
	}
	if out := r.Render(); out != "" {
		t.Fatalf("nil registry rendered %q", out)
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4})
	for _, tc := range []struct {
		v    float64
		cell int // index of the interval cell the observation must land in
	}{
		{0.5, 0}, // below first bound
		{1, 0},   // le is inclusive
		{1.5, 1},
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3}, // overflow → +Inf cell
		{math.Inf(+1), 3},
	} {
		before := make([]uint64, len(h.counts))
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(tc.v)
		for i := range h.counts {
			want := before[i]
			if i == tc.cell {
				want++
			}
			if got := h.counts[i].Load(); got != want {
				t.Fatalf("Observe(%v): cell %d = %d, want %d", tc.v, i, got, want)
			}
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	// Cumulative rendering: bucket{le="2"} must include the le="1" mass.
	out := r.Render()
	for _, want := range []string{
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="2"} 4`,
		`lat_bucket{le="4"} 6`,
		`lat_bucket{le="+Inf"} 8`,
		`lat_count 8`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("q", "", []float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // le=1
	}
	for i := 0; i < 9; i++ {
		h.Observe(5) // le=10
	}
	h.Observe(50) // le=100
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.95); got != 10 {
		t.Fatalf("p95 = %v, want 10", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("p100 = %v, want 100", got)
	}
	var empty *Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("len = %d", len(b))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0,2,3) did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	cv := r.CounterVec("req_total", "requests", "path")
	cv.With(`/a"b\c` + "\n").Inc()
	out := r.Render()
	want := `req_total{path="/a\"b\\c\n"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing %q:\n%s", want, out)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := New()
	r.Counter("b_total", "second family").Add(2)
	av := r.GaugeVec("a_val", "first\nfamily", "k")
	av.With("z").Set(1)
	av.With("a").Set(2)
	out := r.Render()

	// Families sorted by name, series sorted by label values, HELP newline
	// escaped, TYPE lines present.
	wantOrder := []string{
		"# HELP a_val first\\nfamily",
		"# TYPE a_val gauge",
		`a_val{k="a"} 2`,
		`a_val{k="z"} 1`,
		"# HELP b_total second family",
		"# TYPE b_total counter",
		"b_total 2",
	}
	idx := -1
	for _, w := range wantOrder {
		i := strings.Index(out, w)
		if i < 0 {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
		if i < idx {
			t.Fatalf("exposition out of order at %q:\n%s", w, out)
		}
		idx = i
	}
	// Two scrapes of identical state must be byte-identical.
	if out2 := r.Render(); out2 != out {
		t.Fatal("exposition is not deterministic")
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := New()
	c1 := r.Counter("same", "h")
	c2 := r.Counter("same", "h")
	if c1 != c2 {
		t.Fatal("re-registration returned a different counter")
	}
	h1 := r.Histogram("hist", "", []float64{1, 2})
	h2 := r.Histogram("hist", "", []float64{2, 1}) // normalizes equal
	if h1 != h2 {
		t.Fatal("re-registration returned a different histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting kind did not panic")
		}
	}()
	r.Gauge("same", "h")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, name := range []string{"", "1abc", "a-b", "a b", "a{b}"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			r.Counter(name, "")
		}()
	}
}

func TestTimerWithFakeClock(t *testing.T) {
	r := New()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	h := r.Histogram("t_seconds", "", []float64{0.1, 1, 10})
	tm := r.StartTimer(h)
	now = now.Add(500 * time.Millisecond)
	if d := tm.Stop(); d != 0.5 {
		t.Fatalf("timer = %v, want 0.5", d)
	}
	if h.Count() != 1 || h.Sum() != 0.5 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	// Backwards clock: observed as 0, never negative.
	tm = r.StartTimer(h)
	now = now.Add(-time.Hour)
	if d := tm.Stop(); d != 0 {
		t.Fatalf("backwards timer = %v", d)
	}
	if got := h.Sum(); got != 0.5 {
		t.Fatalf("sum after backwards timer = %v", got)
	}
}

// TestConcurrentIncrements hammers one counter, one labeled family and one
// histogram from many goroutines; run under -race in CI. Totals must be
// exact — atomics, not racy read-modify-write.
func TestConcurrentIncrements(t *testing.T) {
	r := New()
	c := r.Counter("conc_total", "")
	hv := r.HistogramVec("conc_seconds", "", []float64{0.5, 1.5, 2.5}, "worker")
	gv := r.GaugeVec("conc_gauge", "", "worker")
	const workers, iters = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w%8))
			for i := 0; i < iters; i++ {
				c.Inc()
				hv.With(name).Observe(float64(i % 3))
				gv.With(name).Set(float64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent scrapes must be safe too
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Render()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %v, want %d", got, workers*iters)
	}
	var hTotal uint64
	for w := 0; w < 8; w++ {
		hTotal += hv.With(string(rune('a' + w))).Count()
	}
	if hTotal != workers*iters {
		t.Fatalf("histogram count = %d, want %d", hTotal, workers*iters)
	}
}

func TestWrongLabelCardinalityPanics(t *testing.T) {
	r := New()
	cv := r.CounterVec("v_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count did not panic")
		}
	}()
	cv.With("only-one")
}
