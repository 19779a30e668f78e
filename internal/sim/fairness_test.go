package sim

import (
	"testing"

	"repro/internal/job"
	"repro/internal/workload"
)

func TestFairnessMetrics(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	ja := job.New(1, "a", "alice", "vc", 8, 0, 1000, cfg)
	jb := job.New(2, "b", "bob", "vc", 8, 0, 1000, cfg)
	tr := mkTrace(ja, jb)
	res := New(tr, fifoLike{}, Options{Tick: 10}).Run()

	slow := res.UserSlowdowns()
	if len(slow) != 2 {
		t.Fatalf("users = %d", len(slow))
	}
	// Alice ran immediately (slowdown ≈1); Bob waited a full job (≈2).
	if slow["alice"] > 1.1 || slow["bob"] < 1.8 {
		t.Fatalf("slowdowns: %v", slow)
	}
	fi := res.FairnessIndex()
	if fi <= 0 || fi >= 1 {
		t.Fatalf("Jain index = %v, want strictly inside (0,1) for unequal users", fi)
	}
	user, worst := res.WorstUserSlowdown()
	if user != "bob" || worst < 1.8 {
		t.Fatalf("worst user = %s (%v)", user, worst)
	}
}

func TestFairnessIndexPerfectlyFair(t *testing.T) {
	cfg := workload.Config{Model: workload.PointNet, BatchSize: 64}
	ja := job.New(1, "a", "alice", "vc", 2, 0, 500, cfg)
	jb := job.New(2, "b", "bob", "vc", 2, 0, 500, cfg)
	tr := mkTrace(ja, jb)
	res := New(tr, fifoLike{}, Options{Tick: 10}).Run()
	// Both ran immediately on an empty cluster: equal slowdowns → index ≈ 1.
	if fi := res.FairnessIndex(); fi < 0.999 {
		t.Fatalf("Jain index = %v for identical users", fi)
	}
}
