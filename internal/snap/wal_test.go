package snap

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func openTestWAL(t *testing.T) *WAL {
	t.Helper()
	return openFaultWAL(t, OS)
}

// faultFS is OS with a hook in front of every open, rename, write and fsync:
// fail gets the call's name and returns the error to inject, or nil to let
// the call through.
type faultFS struct{ fail func(op string) error }

type faultFile struct {
	File
	fail func(op string) error
}

func (fs faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := fs.fail("open"); err != nil {
		return nil, err
	}
	f, err := OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{f, fs.fail}, nil
}

func (fs faultFS) Rename(oldpath, newpath string) error {
	if err := fs.fail("rename"); err != nil {
		return err
	}
	return OS.Rename(oldpath, newpath)
}

func (f faultFile) Write(p []byte) (int, error) {
	if err := f.fail("write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f faultFile) Sync() error {
	if err := f.fail("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

// failOn injects err into every call named op while *on is true.
func failOn(op string, err error, on *bool) faultFS {
	return faultFS{fail: func(got string) error {
		if got == op && *on {
			return err
		}
		return nil
	}}
}

// openFaultWAL opens a WAL in a fresh directory through fs.
func openFaultWAL(t *testing.T, fs FS) *WAL {
	t.Helper()
	w, _, err := OpenWALFS(fs, filepath.Join(t.TempDir(), "wal"), nil)
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
	if err := w.Write(); err != nil {
		t.Fatal(err)
	}
	if got := w.Unsynced(); got != 5 {
		t.Fatalf("Unsynced = %d after five Logs and a Write, want 5 (neither fsyncs)", got)
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
	logWrite := func() int64 {
		seq, err := w.Log([]byte("x"))
		if err == nil {
			err = w.Write()
		}
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	var seq int64
	for i := 0; i < 3; i++ {
		seq = logWrite()
		if err := w.Commit(seq, false); err != nil {
			t.Fatal(err)
		}
	}
	if fsyncs != 0 || w.Unsynced() != 3 {
		t.Fatalf("below the threshold: %d fsyncs, %d unsynced, want 0 and 3", fsyncs, w.Unsynced())
	}
	seq = logWrite()
	if err := w.Commit(seq, false); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 1 || w.Unsynced() != 0 {
		t.Fatalf("at the threshold: %d fsyncs, %d unsynced, want 1 and 0", fsyncs, w.Unsynced())
	}
	seq = logWrite()
	if err := w.Commit(seq, true); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 2 || w.Unsynced() != 0 {
		t.Fatalf("must: %d fsyncs, %d unsynced, want 2 and 0", fsyncs, w.Unsynced())
	}
}

// TestFailedSyncPublishesNothing: the disk fails the fsync with EIO; the
// durable mark and Unsynced must not move, and a caller the failed fsync would
// have covered gets the same error without a second attempt passing it.
func TestFailedSyncPublishesNothing(t *testing.T) {
	failing := true
	w := openFaultWAL(t, failOn("sync", syscall.EIO, &failing))
	for i := 0; i < 3; i++ {
		if _, err := w.Log([]byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write(); err != nil {
		t.Fatal(err)
	}
	called := false
	w.OnSync = func(time.Duration) { called = true }
	err := w.SyncTo(3)
	if err == nil {
		t.Fatal("SyncTo succeeded on a disk that fails fsync")
	}
	if !strings.Contains(err.Error(), "wal sync") || !errors.Is(err, syscall.EIO) {
		t.Errorf("error %q does not name the sync and its EIO", err)
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
		if err == nil && i%600 != 299 { // every other Reset finds the record still staged
			err = w.Write()
		}
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
		if err := w.Write(); err != nil {
			t.Fatal(err)
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

// TestLogDoesNotAllocate: the WAL stages frames in its own buffer.
func TestLogDoesNotAllocate(t *testing.T) {
	w := openTestWAL(t)
	defer w.Close()
	payload := bytes.Repeat([]byte("p"), 120)
	logWrite := func() {
		if _, err := w.Log(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(); err != nil {
			t.Fatal(err)
		}
	}
	logWrite() // grows the buffer once
	if n := testing.AllocsPerRun(200, logWrite); n != 0 {
		t.Errorf("Log + Write allocates %v times per record, want 0", n)
	}
}

// fileSize is the length of the WAL's file on disk.
func fileSize(t *testing.T, w *WAL) int64 {
	t.Helper()
	fi, err := w.f.(*os.File).Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestWriteIsOneWritePerBatch: Log stages, Write puts everything staged in the
// file with one write(), and nothing staged can be claimed before that — until
// stageLimit bytes are staged, which Log writes at once.
func TestWriteIsOneWritePerBatch(t *testing.T) {
	w := openTestWAL(t)
	defer w.Close()
	writes := 0
	w.OnWrite = func(time.Duration) { writes++ }
	for i := 0; i < 27; i++ {
		if _, err := w.Log([]byte("heartbeat")); err != nil {
			t.Fatal(err)
		}
	}
	if w.Seq() != 0 || w.Unsynced() != 0 || fileSize(t, w) != 0 {
		t.Fatalf("staged records are visible: seq %d, unsynced %d, %d bytes on disk", w.Seq(), w.Unsynced(), fileSize(t, w))
	}
	if w.Records() != 27 || w.Bytes() != 27*(recHeaderLen+9) {
		t.Fatalf("Records/Bytes = %d/%d, want the log's length once written: 27/%d", w.Records(), w.Bytes(), 27*(recHeaderLen+9))
	}
	if err := w.Write(); err != nil {
		t.Fatal(err)
	}
	if writes != 1 || w.Seq() != 27 || fileSize(t, w) != w.Bytes() {
		t.Fatalf("after Write: %d writes, seq %d, %d bytes on disk of %d, want 1, 27 and equal", writes, w.Seq(), fileSize(t, w), w.Bytes())
	}

	// Past stageLimit, Log writes what is staged on the spot.
	payload := bytes.Repeat([]byte("s"), 1000)
	for i := 0; i < 200; i++ {
		if _, err := w.Log(payload); err != nil {
			t.Fatal(err)
		}
		if len(w.frame) >= stageLimit {
			t.Fatalf("record %d left %d bytes staged, bound %d", i, len(w.frame), stageLimit)
		}
	}
	if writes < 3 || fileSize(t, w) == w.Bytes() {
		t.Fatalf("%d writes for 200 KB staged, %d of %d bytes on disk: want early writes and a staged tail", writes, fileSize(t, w), w.Bytes())
	}
	if err := w.Write(); err != nil {
		t.Fatal(err)
	}
	if fileSize(t, w) != w.Bytes() || w.Seq() != 227 {
		t.Fatalf("after Write: %d of %d bytes on disk, seq %d, want equal and 227", fileSize(t, w), w.Bytes(), w.Seq())
	}
}

// TestResetDropsStagedFrames: a compaction between Log and Write leaves the
// log empty — the snapshot holds what was staged — and its sequence numbers
// are published durable with the rest.
func TestResetDropsStagedFrames(t *testing.T) {
	w := openTestWAL(t)
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.Log([]byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	seq, err := w.Log([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(); err != nil {
		t.Fatal(err)
	}
	if seq != 4 || w.Records() != 1 || fileSize(t, w) != w.Bytes() || w.Bytes() != recHeaderLen+5 {
		t.Fatalf("seq %d, %d records, %d bytes on disk of %d; want 4, 1 and %d", seq, w.Records(), fileSize(t, w), w.Bytes(), recHeaderLen+5)
	}
	if w.Unsynced() != 1 {
		t.Errorf("Unsynced = %d, want 1: the three dropped records are in the snapshot", w.Unsynced())
	}
}

// TestFailedWriteDropsTheStagedRecords: a write() that fails (here with a full
// disk) publishes nothing and leaves the owner's counts at what the file holds.
func TestFailedWriteDropsTheStagedRecords(t *testing.T) {
	full := false
	w := openFaultWAL(t, failOn("write", syscall.ENOSPC, &full))
	if err := w.Append([]byte("kept"), false); err != nil {
		t.Fatal(err)
	}
	records, size := w.Records(), w.Bytes()
	for i := 0; i < 4; i++ {
		if _, err := w.Log([]byte("lost")); err != nil {
			t.Fatal(err)
		}
	}
	full = true
	if err := w.Write(); err == nil || !strings.Contains(err.Error(), "wal write") || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Write on a full disk: %v, want a wal write error wrapping ENOSPC", err)
	}
	if w.Seq() != 1 || w.Records() != records || w.Bytes() != size {
		t.Errorf("after a failed Write: seq %d, %d records, %d bytes; want 1, %d, %d", w.Seq(), w.Records(), w.Bytes(), records, size)
	}
	if err := w.Write(); err != nil {
		t.Errorf("a second Write with nothing staged: %v", err)
	}
}
