// Package metrics is a stdlib-only, concurrency-safe metrics registry with
// Prometheus text exposition — the observability substrate behind lucidd's
// GET /metrics endpoint, the simulator's per-tick phase timings, and the
// lucidbench artifact dump. It supports the three classic instrument kinds
// (monotonic counters, settable gauges, histograms with fixed bucket
// boundaries), each optionally fanned out into a labeled family.
//
// Design constraints, in priority order:
//
//   - Zero overhead when disabled: every instrument method is nil-safe, so a
//     component holding a nil *Registry (or a nil *Counter looked up from
//     one) pays exactly one nil check on its hot path. This is the same
//     contract Options.DecisionTrace and Options.Chaos already honor in the
//     simulator.
//   - Lock-free hot path: counters, gauges and histogram cells are atomics
//     (float64 bits CAS-folded), so concurrent HTTP handlers and the WAL
//     never serialize on a metrics mutex. Registry locks are taken only at
//     registration and exposition time.
//   - Deterministic exposition: families and series render in sorted order,
//     so two scrapes of identical state are byte-identical (tests diff them).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind discriminates the instrument families.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families. The zero value is not usable; construct
// with New. A nil *Registry is valid everywhere and makes every derived
// instrument a no-op.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
	now  func() time.Time
}

// New returns an empty registry using the wall clock for timers.
func New() *Registry {
	return &Registry{fams: map[string]*family{}, now: time.Now}
}

// SetClock substitutes the time source used by StartTimer, making latency
// tests deterministic. No-op on a nil registry or nil clock.
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

func (r *Registry) clock() func() time.Time {
	r.mu.RLock()
	now := r.now
	r.mu.RUnlock()
	return now
}

// family is one named metric with a fixed kind, label schema and (for
// histograms) bucket boundaries. Unlabeled instruments are a family with a
// single series under the empty key.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, +Inf implicit

	mu     sync.RWMutex
	series map[string]any // key = label values joined by '\xff'
	vals   map[string][]string
}

// registerFamily fetches or creates a family, enforcing schema consistency.
// Re-registering an identical (name, kind, labels, buckets) is idempotent —
// the natural pattern when several components share a registry — while a
// conflicting re-registration panics: silently returning a mismatched family
// would corrupt the exposition.
func (r *Registry) registerFamily(name, help string, k kind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		ok := f.kind == k && sameStrings(f.labels, labels)
		if ok && k == histogramKind {
			ok = sameFloats(f.buckets, normalizeBuckets(buckets))
		}
		if !ok {
			panic(fmt.Sprintf("metrics: conflicting re-registration of %q", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k,
		labels: append([]string(nil), labels...),
		series: map[string]any{}, vals: map[string][]string{}}
	if k == histogramKind {
		f.buckets = normalizeBuckets(buckets)
	}
	r.fams[name] = f
	return f
}

// normalizeBuckets sorts, dedupes and strips a trailing +Inf (re-added at
// exposition). Empty input falls back to DefBuckets.
func normalizeBuckets(b []float64) []float64 {
	if len(b) == 0 {
		b = DefBuckets()
	}
	out := append([]float64(nil), b...)
	sort.Float64s(out)
	dedup := out[:0]
	for i, v := range out {
		if math.IsInf(v, +1) {
			continue
		}
		if i > 0 && v == out[i-1] {
			continue
		}
		dedup = append(dedup, v)
	}
	return dedup
}

// DefBuckets is a general-purpose latency range: 10µs to ~80s in
// power-of-two steps — wide enough for both an fsync and a full scheduler
// sweep over a deep queue.
func DefBuckets() []float64 { return ExpBuckets(1e-5, 2, 24) }

// ExpBuckets returns n exponential bucket upper bounds: start, start×factor,
// start×factor², … Panics on a non-positive start, factor ≤ 1 or n < 1 —
// these are programmer errors, not runtime conditions.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ---------------------------------------------------------------------------
// Instruments

// atomicFloat is a float64 folded into an atomic word.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicFloat) set(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing value. All methods are nil-safe.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas are ignored (counters are
// monotonic by definition; a decrement is always a caller bug).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	c.v.add(v)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.load()
}

// Gauge is a value that can go up and down. All methods are nil-safe.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.set(v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

// Histogram counts observations into fixed buckets. All methods are
// nil-safe. Buckets are cumulative only at exposition; internally each cell
// counts its own interval so Observe touches exactly one cell.
type Histogram struct {
	upper  []float64 // ascending, no +Inf
	counts []atomic.Uint64
	sum    atomicFloat
	n      atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is ≥ v; the final overflow cell is +Inf.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts,
// attributing each bucket's mass to its upper bound — the same conservative
// estimate Prometheus' histogram_quantile makes at the bucket grain. Returns
// 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.upper) {
				return h.upper[i]
			}
			return math.Inf(+1)
		}
	}
	return math.Inf(+1)
}

// ---------------------------------------------------------------------------
// Registry constructors (all nil-safe: a nil registry yields nil instruments)

// Counter returns the named unlabeled counter, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.registerFamily(name, help, counterKind, nil, nil)
	return f.counter()
}

// Gauge returns the named unlabeled gauge, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.registerFamily(name, help, gaugeKind, nil, nil)
	return f.gauge()
}

// Histogram returns the named unlabeled histogram, creating it if needed.
// Nil/empty buckets select DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.registerFamily(name, help, histogramKind, nil, buckets)
	return f.histogram()
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec returns the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.registerFamily(name, help, counterKind, labels, nil)}
}

// With returns the counter for one label-value combination.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.seriesFor(values).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec returns the named labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.registerFamily(name, help, gaugeKind, labels, nil)}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.seriesFor(values).(*Gauge)
}

// HistogramVec is a labeled histogram family (every series shares the
// family's buckets).
type HistogramVec struct{ f *family }

// HistogramVec returns the named labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.registerFamily(name, help, histogramKind, labels, buckets)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.seriesFor(values).(*Histogram)
}

// counter/gauge/histogram fetch the unlabeled singleton series.
func (f *family) counter() *Counter     { return f.seriesFor(nil).(*Counter) }
func (f *family) gauge() *Gauge         { return f.seriesFor(nil).(*Gauge) }
func (f *family) histogram() *Histogram { return f.seriesFor(nil).(*Histogram) }

// seriesFor fetches or creates the series for one label-value tuple. The
// double-checked read lock keeps repeated lookups (the common case once a
// component cached nothing) cheap, and a lookup of an existing series builds
// its key on the stack: no allocation per labeled observation.
func (f *family) seriesFor(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	var stack [128]byte
	buf := stack[:0]
	for i, v := range values {
		if i > 0 {
			buf = append(buf, '\xff')
		}
		buf = append(buf, v...)
	}
	f.mu.RLock()
	s, ok := f.series[string(buf)]
	f.mu.RUnlock()
	if ok {
		return s
	}
	key := string(buf)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	switch f.kind {
	case counterKind:
		s = &Counter{}
	case gaugeKind:
		s = &Gauge{}
	default:
		s = newHistogram(f.buckets)
	}
	f.series[key] = s
	f.vals[key] = append([]string(nil), values...)
	return s
}

// ---------------------------------------------------------------------------
// Exposition

// TextContentType is the Content-Type of the exposition format.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders the registry in Prometheus text exposition format 0.0.4.
// Families and series are emitted in sorted order, so identical state yields
// byte-identical output. A nil registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.RUnlock()

	var sb strings.Builder
	for _, f := range fams {
		f.writeText(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Render returns the exposition as a string ("" on nil).
func (r *Registry) Render() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	_ = r.WriteText(&sb)
	return sb.String()
}

func (f *family) writeText(sb *strings.Builder) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		vals []string
		s    any
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{vals: f.vals[k], s: f.series[k]})
	}
	f.mu.RUnlock()
	if len(rows) == 0 {
		return
	}

	if f.help != "" {
		fmt.Fprintf(sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.kind)
	for _, rw := range rows {
		switch s := rw.s.(type) {
		case *Counter:
			writeSample(sb, f.name, f.labels, rw.vals, "", "", s.Value())
		case *Gauge:
			writeSample(sb, f.name, f.labels, rw.vals, "", "", s.Value())
		case *Histogram:
			var cum uint64
			for i, ub := range s.upper {
				cum += s.counts[i].Load()
				writeSample(sb, f.name+"_bucket", f.labels, rw.vals,
					"le", formatFloat(ub), float64(cum))
			}
			cum += s.counts[len(s.upper)].Load()
			writeSample(sb, f.name+"_bucket", f.labels, rw.vals, "le", "+Inf", float64(cum))
			writeSample(sb, f.name+"_sum", f.labels, rw.vals, "", "", s.Sum())
			writeSample(sb, f.name+"_count", f.labels, rw.vals, "", "", float64(s.Count()))
		}
	}
}

// writeSample emits one line: name{labels...} value. extraK/extraV append a
// synthetic label (the histogram "le" bound).
func writeSample(sb *strings.Builder, name string, labels, vals []string, extraK, extraV string, v float64) {
	sb.WriteString(name)
	if len(labels) > 0 || extraK != "" {
		sb.WriteByte('{')
		first := true
		for i, l := range labels {
			if !first {
				sb.WriteByte(',')
			}
			first = false
			sb.WriteString(l)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(vals[i]))
			sb.WriteByte('"')
		}
		if extraK != "" {
			if !first {
				sb.WriteByte(',')
			}
			sb.WriteString(extraK)
			sb.WriteString(`="`)
			sb.WriteString(extraV)
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string: backslash and newline only (quotes are
// legal there).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validName checks the [a-zA-Z_:][a-zA-Z0-9_:]* metric/label grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
