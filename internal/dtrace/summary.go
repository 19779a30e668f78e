package dtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
)

// Summary is an aggregate view of a decision trace: how many decisions of
// each kind were taken, which rules fired how often, and the regret
// statistics of the counterfactuals — the trace-summary report cmd/lucidsim
// prints.
type Summary struct {
	Total   int64            `json:"total"`
	Dropped int64            `json:"dropped,omitempty"`
	Digest  string           `json:"digest"`
	Actions map[string]int64 `json:"actions"`
	Reasons map[string]int64 `json:"reasons,omitempty"`

	// RegretMean and RegretMax summarize decisions with positive regret;
	// RegretN counts them.
	RegretMean float64 `json:"regret_mean,omitempty"`
	RegretMax  float64 `json:"regret_max,omitempty"`
	RegretN    int64   `json:"regret_n,omitempty"`
}

// Summary snapshots the recorder's aggregate counters. It covers the whole
// trace even when a keep bound dropped events from memory.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	s := Summary{
		Total:     st.Seq,
		Dropped:   st.Dropped,
		Digest:    fmt.Sprintf("%016x", st.Digest),
		Actions:   map[string]int64{},
		Reasons:   maps.Clone(st.Reasons),
		RegretMax: st.RegretMax,
		RegretN:   st.RegretN,
	}
	for a, n := range st.Counts {
		s.Actions[string(a)] = n
	}
	if st.RegretN > 0 {
		s.RegretMean = st.RegretSum / float64(st.RegretN)
	}
	return s
}

// SummarizeEvents rebuilds a Summary from a replayed event list (e.g. one
// read back with ReadJSONL). The digest is recomputed from the canonical
// re-serialization, so it matches the original recorder's digest for a
// faithfully round-tripped trace.
func SummarizeEvents(events []Event) Summary {
	r := New()
	r.keep = 0
	r.topK = -1 // negative: Record keeps alternatives untouched
	for _, ev := range events {
		r.Record(ev)
	}
	return r.Summary()
}

// ReadJSONL parses a JSONL decision trace written by WriteJSONL or a sink.
func ReadJSONL(rd io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("dtrace: line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dtrace: %w", err)
	}
	return out, nil
}

// String renders the summary as an aligned human-readable report.
func (s Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "decision trace: %d events (digest %s", s.Total, s.Digest)
	if s.Dropped > 0 {
		fmt.Fprintf(&sb, ", %d dropped from memory", s.Dropped)
	}
	sb.WriteString(")\n")

	keys := make([]string, 0, len(s.Actions))
	for k := range s.Actions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-16s %8d\n", k, s.Actions[k])
	}

	if len(s.Reasons) > 0 {
		sb.WriteString("  top reasons:\n")
		type rc struct {
			k string
			n int64
		}
		rcs := make([]rc, 0, len(s.Reasons))
		for k, n := range s.Reasons {
			rcs = append(rcs, rc{k, n})
		}
		sort.Slice(rcs, func(i, j int) bool {
			if rcs[i].n != rcs[j].n {
				return rcs[i].n > rcs[j].n
			}
			return rcs[i].k < rcs[j].k
		})
		if len(rcs) > 10 {
			rcs = rcs[:10]
		}
		for _, r := range rcs {
			fmt.Fprintf(&sb, "    %-32s %8d\n", r.k, r.n)
		}
	}
	if s.RegretN > 0 {
		fmt.Fprintf(&sb, "  regret: %d decisions suboptimal under their own metric, mean %.3f max %.3f\n",
			s.RegretN, s.RegretMean, s.RegretMax)
	}
	return sb.String()
}

// Regret computes the regret of choosing an option scored chosen against a
// set of alternatives: how much better the best alternative scored (0 when
// the choice was optimal). lowerBetter selects the metric's direction.
func Regret(chosen float64, alts []Alternative, lowerBetter bool) float64 {
	best := chosen
	for _, a := range alts {
		if lowerBetter && a.Score < best {
			best = a.Score
		}
		if !lowerBetter && a.Score > best {
			best = a.Score
		}
	}
	if lowerBetter {
		return chosen - best
	}
	return best - chosen
}
