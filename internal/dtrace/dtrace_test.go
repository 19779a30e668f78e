package dtrace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(Event{Job: 1, Action: ActPlace}) // must not panic
	r.SetTopK(5)
	r.SetKeep(10)
	r.SetSink(&bytes.Buffer{})
	if r.Digest() != "" || r.Events() != nil || r.SinkErr() != nil {
		t.Fatal("nil recorder leaked state")
	}
	if s := r.Summary(); s.Total != 0 {
		t.Fatal("nil recorder summary non-empty")
	}
	if r.TopK() != 0 {
		t.Fatal("nil recorder TopK != 0")
	}
}

func TestDigestDeterminism(t *testing.T) {
	mk := func() *Recorder {
		r := New()
		for i := 0; i < 100; i++ {
			r.Record(Event{Tick: int64(i * 30), Job: i % 7, Action: ActPlace,
				Reason: "exclusive", VC: "vc0", GPUs: 1 + i%8, Score: float64(i) * 1.5})
		}
		return r
	}
	a, b := mk(), mk()
	if a.Digest() != b.Digest() {
		t.Fatalf("same event stream, different digests: %s vs %s", a.Digest(), b.Digest())
	}
	// Any divergence must change the digest.
	b.Record(Event{Job: 1, Action: ActRetire})
	if a.Digest() == b.Digest() {
		t.Fatal("digest insensitive to extra event")
	}
}

func TestJSONLRoundTripAndSummaryDigest(t *testing.T) {
	r := New()
	r.Record(Event{Tick: 30, Job: 1, Action: ActPack, Reason: "packed", Partner: 2,
		Score: 85, Regret: 0.5,
		Alternatives: []Alternative{{Job: 3, Score: 84.5, Reason: "candidate"}}})
	r.Record(Event{Tick: 60, Job: 4, Action: ActPackReject, Reason: "score-budget"})
	r.Record(Event{Tick: 90, Job: 4, Action: ActPlace, Reason: "exclusive", VC: "vc1", GPUs: 2})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("JSONL lines = %d, want 3", got)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].Partner != 2 || events[1].Reason != "score-budget" {
		t.Fatalf("round trip mangled events: %+v", events)
	}
	// A replayed trace re-summarizes to the original digest.
	if s := SummarizeEvents(events); s.Digest != r.Digest() {
		t.Fatalf("replay digest %s != live digest %s", s.Digest, r.Digest())
	}
}

func TestSinkStreamingMatchesMemory(t *testing.T) {
	var buf bytes.Buffer
	r := New()
	r.SetSink(&buf)
	r.SetKeep(1) // memory bounded; sink must still get everything
	for i := 0; i < 5; i++ {
		r.Record(Event{Job: i, Action: ActRelease, Reason: "submitted"})
	}
	if r.SinkErr() != nil {
		t.Fatal(r.SinkErr())
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("sink got %d events, want 5", len(events))
	}
	if len(r.Events()) != 1 {
		t.Fatalf("memory kept %d events, want 1", len(r.Events()))
	}
	s := r.Summary()
	if s.Total != 5 || s.Dropped != 4 {
		t.Fatalf("summary total/dropped = %d/%d, want 5/4", s.Total, s.Dropped)
	}
}

func TestTopKTruncationAndSanitize(t *testing.T) {
	r := New()
	r.SetTopK(2)
	alts := []Alternative{{Job: 1, Score: 1}, {Job: 2, Score: 2}, {Job: 3, Score: 3}}
	r.Record(Event{Job: 9, Action: ActPack, Score: math.NaN(), Regret: math.Inf(1), Alternatives: alts})
	ev := r.Events()[0]
	if len(ev.Alternatives) != 2 {
		t.Fatalf("alternatives = %d, want topK=2", len(ev.Alternatives))
	}
	if ev.Score != 0 || ev.Regret != 0 {
		t.Fatalf("non-finite scores not sanitized: %+v", ev)
	}
}

func TestRegret(t *testing.T) {
	alts := []Alternative{{Score: 5}, {Score: 3}}
	if got := Regret(4, alts, true); got != 1 {
		t.Fatalf("lower-better regret = %v, want 1", got)
	}
	if got := Regret(2, alts, true); got != 0 {
		t.Fatalf("optimal choice regret = %v, want 0", got)
	}
	if got := Regret(4, alts, false); got != 1 {
		t.Fatalf("higher-better regret = %v, want 1", got)
	}
	if got := Regret(7, nil, false); got != 0 {
		t.Fatalf("no-alternative regret = %v, want 0", got)
	}
}

func TestSummaryReport(t *testing.T) {
	r := New()
	r.Record(Event{Job: 1, Action: ActPlace, Reason: "exclusive"})
	r.Record(Event{Job: 2, Action: ActPlace, Reason: "exclusive"})
	r.Record(Event{Job: 2, Action: ActRetire, Reason: "finished", Regret: 2})
	s := r.Summary()
	if s.Actions["place"] != 2 || s.Reasons["place/exclusive"] != 2 {
		t.Fatalf("summary counters wrong: %+v", s)
	}
	if s.RegretN != 1 || s.RegretMean != 2 || s.RegretMax != 2 {
		t.Fatalf("regret stats wrong: %+v", s)
	}
	out := s.String()
	for _, want := range []string{"3 events", "place", "retire/finished", "regret"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				r.Record(Event{Job: g*1000 + i, Action: ActOrder})
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if r.st.Seq != 1600 {
		t.Fatalf("recorded %d events, want 1600", r.st.Seq)
	}
	seen := map[int64]bool{}
	for _, ev := range r.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// TestStateResumesTrace: a State taken with SnapState is a copy — later
// events leave it unchanged — and a fresh recorder given it with SetState
// ends, after the same further events, with the uninterrupted recorder's
// digest and summary.
func TestStateResumesTrace(t *testing.T) {
	actions := []Action{ActPlace, ActPackReject, ActPreempt, ActOrder}
	record := func(r *Recorder, from, to int) {
		for i := from; i < to; i++ {
			r.Record(Event{Job: i, Action: actions[i%len(actions)],
				Reason: []string{"", "no-capacity", "score-budget"}[i%3], Regret: float64(i % 5)})
		}
	}
	whole := New()
	record(whole, 0, 60)
	st := whole.SnapState()
	before, _ := json.Marshal(st)
	record(whole, 60, 150)
	if after, _ := json.Marshal(st); !bytes.Equal(before, after) {
		t.Fatalf("SnapState's copy moved with the recorder:\n%s\n%s", before, after)
	}

	resumed := New()
	resumed.SetState(st)
	record(resumed, 60, 150)
	if got, want := resumed.Digest(), whole.Digest(); got != want {
		t.Fatalf("resumed digest %s, uninterrupted %s", got, want)
	}
	if got, want := resumed.Summary(), whole.Summary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed summary %+v, uninterrupted %+v", got, want)
	}
}
