package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/loadgen"
)

// TestPrintPerOpSorted: the per-op lines come out in name order, every time
// (ranging over the map printed them in a different order on each run).
func TestPrintPerOpSorted(t *testing.T) {
	res := &loadgen.Result{PerOp: map[string]loadgen.OpStats{
		"submit": {Count: 1}, "agents": {Count: 2}, "heartbeat": {Count: 3},
		"schedule": {Count: 4}, "sample": {Count: 5},
	}}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		printPerOp(&buf, res)
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			got = append(got, strings.Fields(line)[0])
		}
		if want := "agents heartbeat sample schedule submit"; strings.Join(got, " ") != want {
			t.Fatalf("run %d printed ops as %v, want %s", i, got, want)
		}
	}
}
