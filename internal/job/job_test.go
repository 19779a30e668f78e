package job

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

func sample() *Job {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	return New(7, "train-v1", "alice", "vc0", 4, 100, 3600, cfg)
}

// TestJobStays240Bytes: the simulator's per-run fields live in AMP's
// padding. One more word would move every job copy into the 256-byte size
// class, and a month's run allocates one copy per job.
func TestJobStays240Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Job{}); n != 240 {
		t.Fatalf("job.Job is %d bytes, want 240", n)
	}
}

func TestNewInitializesSentinels(t *testing.T) {
	j := sample()
	if j.FirstStart != -1 || j.Finish != -1 {
		t.Fatal("sentinels not set")
	}
	if j.RemainingWork != 3600 {
		t.Fatalf("remaining work %v", j.RemainingWork)
	}
	if j.State != Pending {
		t.Fatalf("state %v", j.State)
	}
	if j.AMP != j.Config.AMP {
		t.Fatal("AMP flag not mirrored from config")
	}
}

func TestJCTAndQueueDelay(t *testing.T) {
	j := sample()
	if j.JCT() != -1 || j.QueueDelay() != -1 {
		t.Fatal("unfinished job must report -1")
	}
	j.Finish = 4000
	j.RunTime = 3600
	if got := j.JCT(); got != 3900 {
		t.Fatalf("JCT = %d", got)
	}
	if got := j.QueueDelay(); got != 300 {
		t.Fatalf("queue delay = %d", got)
	}
	// Queue delay never negative even with rounding slop.
	j.RunTime = 5000
	if got := j.QueueDelay(); got != 0 {
		t.Fatalf("negative queue delay leaked: %d", got)
	}
}

func TestDistributed(t *testing.T) {
	j := sample()
	if j.Distributed() {
		t.Fatal("4-GPU job flagged distributed")
	}
	j.GPUs = 16
	if !j.Distributed() {
		t.Fatal("16-GPU job not flagged distributed")
	}
	j.GPUs = 8
	if j.Distributed() {
		t.Fatal("8-GPU single-node job flagged distributed")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Pending: "Pending", Profiling: "Profiling", Queued: "Queued",
		Running: "Running", Finished: "Finished", State(99): "Unknown",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("%d stringifies as %q", s, s.String())
		}
	}
}

func TestStringContainsIdentity(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"job7", "alice", "train-v1", "gpus=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// String renders a short identity line.
func (j *Job) String() string {
	return fmt.Sprintf("job%d(%s/%s gpus=%d dur=%ds)", j.ID, j.User, j.Name, j.GPUs, j.Duration)
}
