package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// WAL record framing (little-endian):
//
//	length uint32   payload length in bytes
//	crc    uint32   CRC-32 (IEEE) over the payload
//	payload []byte
//
// Recovery semantics: a record is valid only if the full frame is present
// AND the CRC matches. Replay stops at the first invalid frame and reports
// its offset; everything before it is intact (a prefix property the CRC
// framing guarantees for torn tails from crashes mid-write). OpenWAL
// truncates the torn tail so the log is append-clean again.
const (
	recHeaderLen = 8
	// MaxRecordLen bounds a single WAL record. A corrupted length field
	// otherwise turns replay into a multi-gigabyte allocation.
	MaxRecordLen = 16 << 20
)

// ErrCorrupt marks a frame that is present but fails validation (bad CRC or
// implausible length). Callers distinguish it from clean EOF.
var ErrCorrupt = errors.New("snap: corrupt WAL record")

// stageLimit bounds the frames a WAL stages between two Writes: past it, Log
// writes them at once, so a hold that logs a few thousand records pins tens of
// kilobytes, not hundreds.
const stageLimit = 64 << 10

// appendFrame appends payload's frame to buf: a WAL stages its records in one
// buffer it keeps, instead of allocating a frame per record.
func appendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) > MaxRecordLen {
		return buf, fmt.Errorf("snap: record of %d bytes exceeds max %d", len(payload), MaxRecordLen)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// ReadRecord reads one framed record. It returns io.EOF on a clean end
// (zero bytes before the next frame), and an error wrapping ErrCorrupt for
// a torn or damaged frame.
func ReadRecord(r io.Reader) ([]byte, error) {
	hdr := make([]byte, recHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean boundary
		}
		return nil, fmt.Errorf("%w: torn header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	want := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxRecordLen {
		return nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: torn payload: %v", ErrCorrupt, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// WAL is an append-only, CRC-framed log backed by one file, with group commit.
//
// Two parties use it. The OWNER appends (Log then Write, or Append) and resets
// (Reset, Close), one call at a time, under its own lock; Log stages a record
// and hands it the next sequence number of a lifetime counter, and Write puts
// every record staged since the last Write in the file with one write(), which
// is when SyncTo and Commit may claim it. ANYBODY, concurrently and without the
// owner's lock, may ask for durability: SyncTo(seq) returns once record seq is
// on stable storage, and one fsync covers every append that completed before
// it started, so a caller that queued behind somebody else's fsync usually
// finds itself covered and issues none. Commit is the one place that decides
// whether to ask.
type WAL struct {
	f File
	// SyncEvery is the batching threshold: Commit fsyncs, asked or not, once
	// this many appends are unsynced (0 = every append).
	SyncEvery int
	// OnSync, when set, observes the wall-clock duration of each fsync —
	// an instrumentation hook (fsync latency is the WAL's dominant cost and
	// the first thing to watch on a struggling disk). It runs on the
	// goroutine that fsynced, after the fsync was published. Must not call
	// back into the WAL.
	OnSync func(d time.Duration)
	// OnWrite, when set, observes the wall-clock duration of each write() of
	// staged records. It runs on the owner's goroutine, under the owner's
	// lock. Must not call back into the WAL.
	OnWrite func(d time.Duration)

	// Owner's side.
	records int64  // records since the last Reset (replayed + written + staged)
	bytes   int64  // length of the file once the staged frames are written
	frame   []byte // staged frames, not yet written
	staged  int64  // records in frame
	werr    error  // a write Log made early and failed, for the next Write to report

	// appended counts records written over the WAL's lifetime (Reset does not
	// rewind it, and counts the staged records it drops); durable is the
	// highest count known to be on stable storage. durable <= appended, both
	// only grow.
	appended atomic.Int64
	durable  atomic.Int64

	// syncMu serializes fsyncs (and Reset against them). failSeq/failErr
	// remember the last failed fsync and the count it would have covered.
	syncMu  sync.Mutex
	failSeq int64
	failErr error
}

// RecoverStats describes what OpenWAL found on disk.
type RecoverStats struct {
	Records   int   // valid records replayed
	TornBytes int64 // bytes truncated from a damaged tail
}

// OpenWAL is OpenWALFS on the operating system's files.
func OpenWAL(path string, apply func(payload []byte) error) (*WAL, RecoverStats, error) {
	return OpenWALFS(OS, path, apply)
}

// OpenWALFS opens (creating if absent) the log at path through fs, replays
// every valid record through apply, truncates any torn tail, and leaves the
// file positioned for appending. apply may be nil to skip replay consumption
// (the scan still validates and truncates).
func OpenWALFS(fs FS, path string, apply func(payload []byte) error) (*WAL, RecoverStats, error) {
	var stats RecoverStats
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("snap: open wal: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, stats, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, stats, err
	}
	var off int64 // the end of the last valid frame
	for {
		payload, rerr := ReadRecord(f)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			if !errors.Is(rerr, ErrCorrupt) {
				f.Close()
				return nil, stats, rerr
			}
			// Torn or damaged tail: drop everything from the bad frame on.
			stats.TornBytes = size - off
			if terr := f.Truncate(off); terr != nil {
				f.Close()
				return nil, stats, fmt.Errorf("snap: truncate torn wal tail: %w", terr)
			}
			break
		}
		if apply != nil {
			if aerr := apply(payload); aerr != nil {
				f.Close()
				return nil, stats, fmt.Errorf("snap: wal replay at offset %d: %w", off, aerr)
			}
		}
		stats.Records++
		off += recHeaderLen + int64(len(payload))
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, stats, err
	}
	// The counters start at zero whatever was replayed: what OpenWAL read back
	// is already as durable as it will get.
	w := &WAL{f: f, SyncEvery: 64, records: int64(stats.Records), bytes: off}
	return w, stats, nil
}

// Log stages payload's frame for the next Write and returns the record's
// sequence number. It never fsyncs, and writes only once stageLimit bytes are
// staged: the record is in the file once Write has returned nil, and durable
// once SyncTo(seq), or a Commit that decided to sync, has. Owner only.
func (w *WAL) Log(payload []byte) (seq int64, err error) {
	if w.frame, err = appendFrame(w.frame, payload); err != nil {
		return 0, fmt.Errorf("snap: wal append: %w", err)
	}
	w.staged++
	w.records++
	w.bytes += int64(recHeaderLen + len(payload))
	seq = w.appended.Load() + w.staged
	if len(w.frame) >= stageLimit && w.werr == nil {
		w.werr = w.write()
	}
	return seq, nil
}

// Write puts every record Log staged since the last Write in the file, with
// one write() (those past stageLimit went earlier), and publishes their
// sequence numbers to Seq, SyncTo and Commit. If any of those writes failed,
// the records not in the file are dropped, uncounted, and the error is
// returned. Owner only.
func (w *WAL) Write() error {
	if err := w.werr; err != nil {
		w.werr = nil
		w.unstage()
		return err
	}
	return w.write()
}

// write is one write() of the staged frames.
func (w *WAL) write() error {
	if w.staged == 0 {
		return nil
	}
	var start time.Time
	if w.OnWrite != nil {
		start = time.Now()
	}
	if _, err := w.f.Write(w.frame); err != nil {
		w.unstage()
		return fmt.Errorf("snap: wal write: %w", err)
	}
	if w.OnWrite != nil {
		w.OnWrite(time.Since(start))
	}
	w.appended.Add(w.staged)
	w.frame, w.staged = w.frame[:0], 0
	return nil
}

// unstage drops the staged records.
func (w *WAL) unstage() {
	w.records -= w.staged
	w.bytes -= int64(len(w.frame))
	w.frame, w.staged = w.frame[:0], 0
}

// Append is Log, Write and Commit on the calling goroutine: with sync=true
// the record is fsynced before Append returns, with sync=false durability is
// deferred to the SyncEvery threshold, a later commit, or Close.
func (w *WAL) Append(payload []byte, sync bool) error {
	seq, err := w.Log(payload)
	if err != nil {
		return err
	}
	if err := w.Write(); err != nil {
		return err
	}
	return w.Commit(seq, sync)
}

// Commit is THE decision to fsync: it syncs through seq when somebody must see
// seq durable, or when SyncEvery appends have piled up unsynced — whoever
// notices pays, so the unsynced tail stays bounded with nobody waiting on it.
// Safe without the owner's lock.
func (w *WAL) Commit(seq int64, must bool) error {
	if must || w.Unsynced() >= int64(w.SyncEvery) {
		return w.SyncTo(seq)
	}
	return nil
}

// SyncTo returns once every record up to seq is on stable storage. Safe
// without the owner's lock, from any number of goroutines: they queue on the
// WAL's own mutex, the one in front fsyncs and publishes the append count it
// noted BEFORE the fsync (appends that land during it may or may not be
// covered, so they are not claimed), and those behind it re-check and mostly
// return without touching the disk. A failed fsync publishes nothing, and every
// caller it would have covered gets its error until a later fsync succeeds.
func (w *WAL) SyncTo(seq int64) error {
	if w.durable.Load() >= seq {
		return nil
	}
	w.syncMu.Lock()
	if w.durable.Load() >= seq {
		w.syncMu.Unlock()
		return nil
	}
	if seq <= w.failSeq {
		err := w.failErr
		w.syncMu.Unlock()
		return err
	}
	covered := w.appended.Load()
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.failSeq, w.failErr = covered, fmt.Errorf("snap: wal sync: %w", err)
		w.syncMu.Unlock()
		return w.failErr
	}
	d := time.Since(start)
	w.durable.Store(covered)
	w.syncMu.Unlock()
	if w.OnSync != nil {
		w.OnSync(d)
	}
	return nil
}

// Sync flushes every record appended so far to stable storage.
func (w *WAL) Sync() error { return w.SyncTo(w.appended.Load()) }

// Seq is the sequence number of the last record written (0 before the first).
func (w *WAL) Seq() int64 { return w.appended.Load() }

// Durable is the sequence number of the last record known to be on stable
// storage. Safe without the owner's lock.
func (w *WAL) Durable() int64 { return w.durable.Load() }

// Unsynced reports how many written records no fsync has covered yet. Safe
// without the owner's lock.
func (w *WAL) Unsynced() int64 {
	// durable first: read the other way round, an append and its fsync landing
	// between the two loads would make the difference negative.
	d := w.durable.Load()
	return w.appended.Load() - d
}

// Records reports how many valid records the log holds (replayed, written and
// staged since the last Reset). Owner only, like Bytes.
func (w *WAL) Records() int64 { return w.records }

// Bytes reports the log's valid length in bytes, staged frames included.
func (w *WAL) Bytes() int64 { return w.bytes }

// Reset truncates the log to empty after a successful (fsynced) snapshot
// compaction. Everything logged so far is in that snapshot, so it is
// published as durable, and the staged frames are dropped unwritten. Owner
// only; waits out an fsync in flight.
func (w *WAL) Reset() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.appended.Add(w.staged)
	w.frame, w.staged, w.werr = w.frame[:0], 0, nil
	w.records, w.bytes = 0, 0
	w.durable.Store(w.appended.Load())
	return nil
}

// Close writes what is staged, syncs and closes the log file.
func (w *WAL) Close() error {
	if err := w.Write(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
