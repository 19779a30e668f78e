package snap

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openTestWAL(t *testing.T) *WAL {
	t.Helper()
	w, _, err := OpenWAL(filepath.Join(t.TempDir(), "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSyncToCoversEveryEarlierAppend: group commit's unit step. One fsync asked
// for on behalf of record 2 covers the five records written before it started,
// so the caller waiting for record 5 finds itself covered and issues none.
func TestSyncToCoversEveryEarlierAppend(t *testing.T) {
	w := openTestWAL(t)
	defer w.Close()
	fsyncs := 0
	w.OnSync = func(time.Duration) { fsyncs++ }
	for i := 1; i <= 5; i++ {
		seq, err := w.Log([]byte("x"))
		if err != nil || seq != int64(i) {
			t.Fatalf("Log #%d = (%d, %v)", i, seq, err)
		}
	}
	if got := w.Unsynced(); got != 5 {
		t.Fatalf("Unsynced = %d after five Logs, want 5 (Log never fsyncs)", got)
	}
	if err := w.SyncTo(2); err != nil {
		t.Fatal(err)
	}
	if got := w.Unsynced(); got != 0 {
		t.Errorf("Unsynced = %d after SyncTo(2), want 0: the fsync covered all five", got)
	}
	if err := w.SyncTo(5); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 1 {
		t.Errorf("%d fsyncs, want 1: covered callers must not touch the disk", fsyncs)
	}
}

// TestCommitRule pins the one fsync rule: must, or SyncEvery unsynced appends.
func TestCommitRule(t *testing.T) {
	w := openTestWAL(t)
	defer w.Close()
	fsyncs := 0
	w.OnSync = func(time.Duration) { fsyncs++ }
	w.SyncEvery = 4
	var seq int64
	for i := 0; i < 3; i++ {
		seq, _ = w.Log([]byte("x"))
		if err := w.Commit(seq, false); err != nil {
			t.Fatal(err)
		}
	}
	if fsyncs != 0 || w.Unsynced() != 3 {
		t.Fatalf("below the threshold: %d fsyncs, %d unsynced, want 0 and 3", fsyncs, w.Unsynced())
	}
	seq, _ = w.Log([]byte("x"))
	if err := w.Commit(seq, false); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 1 || w.Unsynced() != 0 {
		t.Fatalf("at the threshold: %d fsyncs, %d unsynced, want 1 and 0", fsyncs, w.Unsynced())
	}
	seq, _ = w.Log([]byte("x"))
	if err := w.Commit(seq, true); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 2 || w.Unsynced() != 0 {
		t.Fatalf("must: %d fsyncs, %d unsynced, want 2 and 0", fsyncs, w.Unsynced())
	}
}

// TestFailedSyncPublishesNothing: with the descriptor gone the fsync fails; the
// durable mark and Unsynced must not move, and a caller the failed fsync would
// have covered gets the same error without a second attempt passing it.
func TestFailedSyncPublishesNothing(t *testing.T) {
	w := openTestWAL(t)
	for i := 0; i < 3; i++ {
		if _, err := w.Log([]byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	called := false
	w.OnSync = func(time.Duration) { called = true }
	w.f.Close()
	err := w.SyncTo(3)
	if err == nil {
		t.Fatal("SyncTo on a closed descriptor succeeded")
	}
	if !strings.Contains(err.Error(), "wal sync") {
		t.Errorf("error %q does not name the sync", err)
	}
	if got := w.durable.Load(); got != 0 {
		t.Errorf("durable mark moved to %d on a failed fsync", got)
	}
	if got := w.Unsynced(); got != 3 {
		t.Errorf("Unsynced = %d after a failed fsync, want 3", got)
	}
	if called {
		t.Error("OnSync observed an fsync that failed")
	}
	if err2 := w.SyncTo(1); err2 != err {
		t.Errorf("a waiter the failed fsync covered got %v, want the same error %v", err2, err)
	}
	if err := w.Commit(3, false); err != nil {
		t.Errorf("Commit below the threshold touched the disk: %v", err)
	}
}

// TestResetPublishesDurable: after a compaction everything appended is in the
// fsynced snapshot, so waiters on old sequence numbers return at once.
func TestResetPublishesDurable(t *testing.T) {
	w := openTestWAL(t)
	defer w.Close()
	fsyncs := 0
	w.OnSync = func(time.Duration) { fsyncs++ }
	for i := 0; i < 4; i++ {
		if _, err := w.Log([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Unsynced() != 0 || w.Seq() != 4 {
		t.Fatalf("after Reset: unsynced %d, seq %d, want 0 and 4 (the counter is lifetime)", w.Unsynced(), w.Seq())
	}
	if err := w.SyncTo(4); err != nil || fsyncs != 0 {
		t.Errorf("SyncTo after Reset: err %v, %d fsyncs, want none", err, fsyncs)
	}
}

// TestConcurrentSyncAppendReset is the -race test of the two-party contract: one
// owner appends and resets under its own lock while committers fsync without
// it. Afterwards the file replays exactly what the owner says it holds.
func TestConcurrentSyncAppendReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var (
		owner sync.Mutex
		stop  atomic.Bool
		wg    sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				if err := w.Commit(w.Seq(), g%2 == 0); err != nil {
					t.Error(err)
					return
				}
				if u := w.Unsynced(); u < 0 {
					t.Errorf("Unsynced = %d", u)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 2000; i++ {
		owner.Lock()
		seq, err := w.Log([]byte("record"))
		if err != nil {
			t.Fatal(err)
		}
		if i%300 == 299 {
			if err := w.Reset(); err != nil {
				t.Fatal(err)
			}
			if d := w.durable.Load(); d < seq {
				t.Fatalf("durable %d < %d right after Reset", d, seq)
			}
		}
		owner.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	want := w.Records()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Unsynced() != 0 {
		t.Errorf("Unsynced = %d after Close", w.Unsynced())
	}
	var got int64
	w2, stats, err := OpenWAL(path, func([]byte) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got != want || stats.TornBytes != 0 {
		t.Errorf("replayed %d records (%d torn bytes), the owner counted %d", got, stats.TornBytes, want)
	}
}

// TestLogDoesNotAllocate: the WAL frames into its own scratch buffer.
func TestLogDoesNotAllocate(t *testing.T) {
	w := openTestWAL(t)
	defer w.Close()
	payload := bytes.Repeat([]byte("p"), 120)
	if _, err := w.Log(payload); err != nil { // grows the scratch once
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := w.Log(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Log allocates %v times per record, want 0", n)
	}
}
