package lucidd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/snap"
)

// durableServer builds a server persisting into dir. Model training is
// shared process-wide, so this is cheap after the first test.
func durableServer(t *testing.T, dir string, compactEvery int64) *Server {
	t.Helper()
	s, err := NewServerWith(Options{StateDir: dir, compactEvery: compactEvery, EnableChaos: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// jobsBody fetches GET /jobs and returns the raw JSON (IDs are sorted, so
// equal state yields equal bodies).
func jobsBody(t *testing.T, s *Server) string {
	t.Helper()
	rec := do(t, s, http.MethodGet, "/jobs", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs: %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestRecoverFromWAL is the crash-recovery acceptance test: a server that is
// abandoned without Shutdown (the in-process analogue of SIGKILL — no final
// snapshot, only the WAL) must come back with every acknowledged mutation.
func TestRecoverFromWAL(t *testing.T) {
	dir := t.TempDir()
	s1 := durableServer(t, dir, 0)
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"name":"job-%d","user":"alice","vc":"vc0","gpus":%d}`, i, i+1)
		if rec := do(t, s1, http.MethodPost, "/jobs", body); rec.Code != http.StatusCreated {
			t.Fatalf("submit %d: %d: %s", i, rec.Code, rec.Body)
		}
	}
	for i := 0; i < minSamples; i++ {
		// Near-idle PPO-like samples: the analyzer scores these Tiny, so the
		// test can tell a recovered profile from the unprofiled Jumbo prior.
		body := `{"job":1,"gpu_util":11,"gpu_mem_mb":1200,"gpu_mem_util":7}`
		if rec := do(t, s1, http.MethodPost, "/metrics", body); rec.Code != http.StatusOK {
			t.Fatalf("metrics: %d: %s", rec.Code, rec.Body)
		}
	}
	if rec := do(t, s1, http.MethodPost, "/agents", `{"name":"agent-0","node":0}`); rec.Code != http.StatusOK {
		t.Fatalf("agent: %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s1, http.MethodPost, "/chaos", `{"action":"fail-job","job":2}`); rec.Code != http.StatusOK {
		t.Fatalf("fail-job: %d: %s", rec.Code, rec.Body)
	}
	want := jobsBody(t, s1)
	// s1 is dropped here without Shutdown: no snapshot was ever written, so
	// the second server rebuilds purely from WAL replay.

	s2 := durableServer(t, dir, 0)
	if got := jobsBody(t, s2); got != want {
		t.Errorf("recovered jobs differ:\n got %s\nwant %s", got, want)
	}
	records, torn, fromSnap := s2.Recovery()
	if records == 0 || torn != 0 || fromSnap {
		t.Errorf("recovery = (%d records, %d torn, snapshot=%v), want WAL-only replay",
			records, torn, fromSnap)
	}
	var recovered []jobState
	if err := json.Unmarshal([]byte(jobsBody(t, s2)), &recovered); err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(recovered))
	}
	if j := recovered[0]; j.Samples != minSamples || j.Score == "Jumbo" {
		t.Errorf("job 1 lost its profile across the crash: %+v", j)
	}
	if j := recovered[1]; j.Restarts != 1 || j.Samples != 0 {
		t.Errorf("job 2 lost its chaos kill across the crash: %+v", j)
	}
	// ID allocation must continue, never reuse.
	rec := do(t, s2, http.MethodPost, "/jobs", `{"name":"after-crash","gpus":1}`)
	var js jobState
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	if js.ID != 4 {
		t.Errorf("post-recovery job got ID %d, want 4", js.ID)
	}
	// The recovered agent heartbeat survives too (it is fresh enough not to
	// be swept).
	arec := do(t, s2, http.MethodGet, "/agents", "")
	var agents []agentState
	if err := json.Unmarshal(arec.Body.Bytes(), &agents); err != nil {
		t.Fatal(err)
	}
	if len(agents) != 1 || agents[0].Name != "agent-0" {
		t.Errorf("recovered agents = %+v, want [agent-0]", agents)
	}
}

// TestRecoverEvictedAgent: a replayed evict-agent record must remove the agent
// from the listing index and the heartbeat-order list, not only the table.
// Before every mutation went through one apply function, replay deleted the
// map entry alone: the reopened server listed the evicted agent again, and
// one more heartbeat from it listed it twice.
func TestRecoverEvictedAgent(t *testing.T) {
	dir := t.TempDir()
	s1 := durableServer(t, dir, 0)
	for _, body := range []string{`{"name":"doomed","node":3}`, `{"name":"survivor","node":4}`} {
		if rec := do(t, s1, http.MethodPost, "/agents", body); rec.Code != http.StatusOK {
			t.Fatalf("heartbeat: %d: %s", rec.Code, rec.Body)
		}
	}
	if rec := do(t, s1, http.MethodPost, "/chaos", `{"action":"evict-agent","agent":"doomed"}`); rec.Code != http.StatusOK {
		t.Fatalf("evict: %d: %s", rec.Code, rec.Body)
	}
	// s1 is dropped without Shutdown: s2 rebuilds purely from WAL replay.
	s2 := durableServer(t, dir, 0)
	names := func() []string {
		var agents []agentState
		if err := json.Unmarshal([]byte(get(t, s2, "/agents")), &agents); err != nil {
			t.Fatal(err)
		}
		out := []string{}
		for _, a := range agents {
			out = append(out, a.Name)
		}
		return out
	}
	if got := names(); len(got) != 1 || got[0] != "survivor" {
		t.Errorf("agents after replaying an eviction = %v, want [survivor]", got)
	}
	if rec := do(t, s2, http.MethodPost, "/agents", `{"name":"doomed","node":3}`); rec.Code != http.StatusOK {
		t.Fatalf("returning heartbeat: %d: %s", rec.Code, rec.Body)
	}
	if got := names(); len(got) != 2 || got[0] != "doomed" || got[1] != "survivor" {
		t.Errorf("agents after the evicted agent returned = %v, want [doomed survivor]", got)
	}
}

// TestRecoverTornTail crashes mid-append: garbage after the last valid record
// must be truncated, everything before it recovered.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	s1 := durableServer(t, dir, 0)
	if rec := do(t, s1, http.MethodPost, "/jobs", `{"name":"survivor","gpus":2}`); rec.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rec.Code, rec.Body)
	}
	want := jobsBody(t, s1)

	walPath := filepath.Join(dir, shardDirName(0), walFileName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := durableServer(t, dir, 0)
	records, torn, _ := s2.Recovery()
	if records != 1 || torn != 5 {
		t.Errorf("recovery = (%d records, %d torn), want (1, 5)", records, torn)
	}
	if got := jobsBody(t, s2); got != want {
		t.Errorf("torn-tail recovery lost state:\n got %s\nwant %s", got, want)
	}
}

// TestCompactionAndShutdown drives the WAL past the compaction threshold,
// checks /statusz reflects the snapshot, then shuts down cleanly and verifies
// the next boot restores from the snapshot with an empty WAL.
func TestCompactionAndShutdown(t *testing.T) {
	dir := t.TempDir()
	s1 := durableServer(t, dir, 4)
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"name":"job-%d","gpus":1}`, i)
		if rec := do(t, s1, http.MethodPost, "/jobs", body); rec.Code != http.StatusCreated {
			t.Fatalf("submit %d: %d: %s", i, rec.Code, rec.Body)
		}
	}
	var status struct {
		Durable *durableStatus `json:"durable"`
	}
	if err := json.Unmarshal(do(t, s1, http.MethodGet, "/statusz", "").Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.Durable == nil {
		t.Fatal("durable server reports no durable status")
	}
	if status.Durable.Compactions < 1 || !status.Durable.HasSnapshot {
		t.Errorf("expected a compaction after 6 submits with threshold 4: %+v", status.Durable)
	}
	if status.Durable.WALRecords >= 6 {
		t.Errorf("WAL was not reset by compaction: %d records", status.Durable.WALRecords)
	}
	want := jobsBody(t, s1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2 := durableServer(t, dir, 4)
	records, torn, fromSnap := s2.Recovery()
	if records != 0 || torn != 0 || !fromSnap {
		t.Errorf("post-shutdown recovery = (%d records, %d torn, snapshot=%v), want snapshot-only",
			records, torn, fromSnap)
	}
	if got := jobsBody(t, s2); got != want {
		t.Errorf("snapshot recovery lost state:\n got %s\nwant %s", got, want)
	}
}

// TestHealthz covers the probe contract: 200 while serving, 503 "draining"
// after Shutdown begins (served past the drain gate).
func TestHealthz(t *testing.T) {
	s, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d: %s", rec.Code, rec.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec = do(t, s, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "draining" {
		t.Fatalf("healthz body = %v, want status=draining", body)
	}
}

// TestStatusz checks the operational report on a plain in-memory server.
func TestStatusz(t *testing.T) {
	s := testServer(t)
	rec := do(t, s, http.MethodGet, "/statusz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz: %d: %s", rec.Code, rec.Body)
	}
	var status struct {
		Status    string         `json:"status"`
		UptimeSec float64        `json:"uptime_sec"`
		Durable   *durableStatus `json:"durable"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.Status != "ok" || status.UptimeSec < 0 {
		t.Errorf("statusz = %+v", status)
	}
	if status.Durable != nil {
		t.Errorf("in-memory server reports durable status: %+v", status.Durable)
	}

	// A durable one reports how far the disk is behind the log: the
	// submission's commit fsynced its record, the two heartbeats after it wait.
	dir := t.TempDir()
	d := durableServer(t, dir, 0)
	submitJob(t, d, "j", "vc-0", 1)
	for i := 0; i < 2; i++ {
		if rec := do(t, d, http.MethodPost, "/agents", `{"name":"agent-0","vc":"vc-0","node":0}`); rec.Code != http.StatusOK {
			t.Fatalf("heartbeat: %d: %s", rec.Code, rec.Body)
		}
	}
	var dst struct {
		Durable *durableStatus `json:"durable"`
		ByShard []shardStatus  `json:"by_shard"`
	}
	if err := json.Unmarshal(do(t, d, http.MethodGet, "/statusz", "").Body.Bytes(), &dst); err != nil {
		t.Fatal(err)
	}
	if dst.Durable == nil || dst.Durable.WALRecords != 3 || dst.Durable.WALUnsynced != 2 {
		t.Errorf("durable = %+v, want 3 wal_records of which 2 wal_unsynced", dst.Durable)
	}
	if len(dst.ByShard) != 1 || dst.ByShard[0].Durable == nil || dst.ByShard[0].Durable.WALUnsynced != 2 {
		t.Errorf("by_shard = %+v, want one shard with 2 wal_unsynced", dst.ByShard)
	}

	// A reboot owes nobody an fsync: what replay read back is as durable as it
	// will get, and the submission among it was answered by the last process.
	d2 := durableServer(t, dir, 0)
	if rec := do(t, d2, http.MethodPost, "/agents", `{"name":"agent-0","vc":"vc-0","node":0}`); rec.Code != http.StatusOK {
		t.Fatalf("heartbeat after reboot: %d: %s", rec.Code, rec.Body)
	}
	if n, u := d2.met.walFsync.Count(), d2.shards[0].wal.Unsynced(); n != 0 || u != 1 {
		t.Errorf("first heartbeat after a reboot: %d fsyncs, %d unsynced, want 0 and 1", n, u)
	}
}

// faultFS is snap.OS with a hook in front of every storage call a running
// shard makes — open and rename, and a file's write, seek, sync, truncate and
// close: fail gets the call's name and returns the error to inject, or nil to
// let the call through. Calls are serialized, so the hook may count them.
type faultFS struct {
	mu   sync.Mutex
	fail func(op string) error
}

type faultFile struct {
	snap.File
	fs *faultFS
}

func (fs *faultFS) check(op string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.fail(op)
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (snap.File, error) {
	if err := fs.check("open"); err != nil {
		return nil, err
	}
	f, err := snap.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{f, fs}, nil
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	if err := fs.check("rename"); err != nil {
		return err
	}
	return snap.OS.Rename(oldpath, newpath)
}

func (f faultFile) Write(p []byte) (int, error) {
	if err := f.fs.check("write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f faultFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.fs.check("seek"); err != nil {
		return 0, err
	}
	return f.File.Seek(offset, whence)
}

func (f faultFile) Sync() error {
	if err := f.fs.check("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f faultFile) Truncate(size int64) error {
	if err := f.fs.check("truncate"); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f faultFile) Close() error {
	if err := f.fs.check("close"); err != nil {
		return err
	}
	return f.File.Close()
}

// compactionCalls are the storage calls of one compaction, in order:
// snap.WriteFile installs the snapshot (open, write, sync and close the temp
// file, rename it), then WAL.Reset empties the log (truncate, seek, sync).
var compactionCalls = []string{"open", "write", "sync", "close", "rename", "truncate", "seek", "sync"}

// crashCompaction boots a durable server whose shard compacts every 4 records,
// submits three jobs, and then posts the heartbeat whose record starts the
// shard's first compaction, with every storage call from the k-th call of that
// compaction on failing: the process "dies" there, and what it wrote before
// survives (the page cache outlives a crashed process). It returns the /jobs
// listing the three 201s acknowledged, the listing of a server rebooted on
// snap.OS over the same directory, and the storage calls the heartbeat made.
func crashCompaction(t *testing.T, k int) (acked, recovered string, calls []string) {
	t.Helper()
	dir := t.TempDir()
	armed := false
	fs := &faultFS{fail: func(op string) error {
		if !armed {
			return nil
		}
		calls = append(calls, op)
		if len(calls) > k {
			return errors.New("crashed")
		}
		return nil
	}}
	s, err := NewServerWith(Options{StateDir: dir, compactEvery: 4, fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		submitJob(t, s, fmt.Sprintf("job-%d", i), "vc-0", 1+i)
	}
	acked = jobsBody(t, s)
	fs.mu.Lock()
	armed = true
	fs.mu.Unlock()
	do(t, s, http.MethodPost, "/agents", `{"name":"agent-0","vc":"vc-0","node":0}`)
	fs.mu.Lock()
	armed = false
	fs.mu.Unlock()
	// s is abandoned here, as a crashed process is.
	return acked, jobsBody(t, durableServer(t, dir, 4)), calls
}

// TestCompactionCrashPoints: a crash at any storage call of a compaction but
// one (the known defect below) reboots to exactly the acknowledged jobs. Up to
// the rename the old snapshot and the whole WAL are left; after the WAL
// truncate, the new snapshot and an empty WAL.
func TestCompactionCrashPoints(t *testing.T) {
	if _, _, calls := crashCompaction(t, len(compactionCalls)); !slices.Equal(calls, compactionCalls) {
		t.Fatalf("one compaction made the storage calls %v, want %v", calls, compactionCalls)
	}
	for k := 0; k <= len(compactionCalls); k++ {
		at := "none"
		if k < len(compactionCalls) {
			at = compactionCalls[k]
		}
		if at == "truncate" {
			continue // TestCompactionCrashAtWALTruncateKnownDefect
		}
		t.Run(fmt.Sprintf("%d-%s", k, at), func(t *testing.T) {
			if acked, got, _ := crashCompaction(t, k); got != acked {
				t.Errorf("rebooted after a crash at call %d (%s):\n got %s\nwant %s", k, at, got, acked)
			}
		})
	}
}

// TestCompactionCrashAtWALTruncateKnownDefect pins ROADMAP 1(b)(vi): a crash at
// the WAL truncate, after the rename installed a snapshot that holds every
// record of the WAL, leaves both on disk, and the reboot replays the WAL over
// the snapshot: every acknowledged job is listed twice. The fix (the snapshot
// records the WAL sequence it covers) makes the listing equal the acked one;
// then fold this case into TestCompactionCrashPoints.
func TestCompactionCrashAtWALTruncateKnownDefect(t *testing.T) {
	acked, got, _ := crashCompaction(t, slices.Index(compactionCalls, "truncate"))
	var want, jobs []jobState
	if err := json.Unmarshal([]byte(acked), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(got), &jobs); err != nil {
		t.Fatal(err)
	}
	listed := map[int]int{}
	for _, js := range jobs {
		listed[js.ID]++
	}
	twice := len(want) == 3 && len(jobs) == 2*len(want)
	for _, js := range want {
		twice = twice && listed[js.ID] == 2
	}
	if !twice {
		t.Fatalf("after a crash at the WAL truncate /jobs lists %s; pinned: each of the acked jobs %s twice (if this is the 1(b)(vi) fix, fold this case into TestCompactionCrashPoints)", got, acked)
	}
}
