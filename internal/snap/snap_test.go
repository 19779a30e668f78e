package snap

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte(`{"now":3600,"jobs":[1,2,3]}`)
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "sim-world", payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEnvelope(bytes.NewReader(buf.Bytes()), "sim-world")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: payload=%q", got)
	}
}

// TestEnvelopeRejectsWrongKind: a reader asking for one kind never gets the
// payload of another, however intact the envelope.
func TestEnvelopeRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "evolve-search", []byte("a search checkpoint")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEnvelope(bytes.NewReader(buf.Bytes()), "sim-world")
	if err == nil || got != nil || !strings.Contains(err.Error(), `kind "evolve-search", want "sim-world"`) {
		t.Fatalf("wrong kind: payload %q, error %v; want no payload and an error naming both kinds", got, err)
	}
}

func TestEnvelopeDeterministic(t *testing.T) {
	payload := []byte("same state twice")
	var a, b bytes.Buffer
	if err := WriteEnvelope(&a, "k", payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteEnvelope(&b, "k", payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical payloads produced different envelope bytes")
	}
}

func TestEnvelopeRejectsTruncationAndCorruption(t *testing.T) {
	payload := []byte("the complete simulator world")
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "sim-world", payload); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Every proper prefix must fail loudly, never parse as empty state.
	for cut := 0; cut < len(whole); cut++ {
		if _, err := ReadEnvelope(bytes.NewReader(whole[:cut]), "sim-world"); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(whole))
		}
	}
	// Any single flipped payload byte must fail the digest.
	for i := len(whole) - len(payload); i < len(whole); i++ {
		mut := append([]byte(nil), whole...)
		mut[i] ^= 0x40
		if _, err := ReadEnvelope(bytes.NewReader(mut), "sim-world"); err == nil {
			t.Fatalf("flipped payload byte %d accepted", i)
		}
	}
	// Wrong magic.
	mut := append([]byte(nil), whole...)
	mut[0] = 'X'
	if _, err := ReadEnvelope(bytes.NewReader(mut), "sim-world"); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
}

// TestTruncatedPayloadReportsBytesRead: the error names how much of the payload
// arrived. It used to print the literal 0 whatever was read.
func TestTruncatedPayloadReportsBytesRead(t *testing.T) {
	payload := []byte("forty bytes of payload, cut off half way")
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "k", payload); err != nil {
		t.Fatal(err)
	}
	cut := buf.Len() - len(payload) + 17
	_, err := ReadEnvelope(bytes.NewReader(buf.Bytes()[:cut]), "k")
	if err == nil || !strings.Contains(err.Error(), "truncated payload (17 of 40 bytes)") {
		t.Fatalf("truncated mid-payload: %v, want \"truncated payload (17 of 40 bytes)\"", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("cause lost: %v", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("a"), {}, []byte("third record with more bytes")}
	for _, p := range payloads {
		var err error
		if buf, err = appendFrame(buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf)
	for i, want := range payloads {
		got, err := ReadRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %q want %q", i, got, want)
		}
	}
	if _, err := ReadRecord(r); err != io.EOF {
		t.Fatalf("want clean EOF after last record, got %v", err)
	}
}

func TestReadRecordCorruption(t *testing.T) {
	whole, err := appendFrame(nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: every strict prefix (except empty = clean EOF) is corrupt.
	for cut := 1; cut < len(whole); cut++ {
		_, err := ReadRecord(bytes.NewReader(whole[:cut]))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d/%d: want ErrCorrupt, got %v", cut, len(whole), err)
		}
	}
	// Flipped payload byte: CRC catches it.
	mut := append([]byte(nil), whole...)
	mut[len(mut)-1] ^= 0x01
	if _, err := ReadRecord(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: want ErrCorrupt, got %v", err)
	}
}

func TestWALRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")

	w, stats, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.TornBytes != 0 {
		t.Fatalf("fresh wal reported prior state: %+v", stats)
	}
	for _, p := range []string{"op-1", "op-2", "op-3"} {
		if err := w.Append([]byte(p), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the last record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	var replayed []string
	w2, stats, err := OpenWAL(path, func(p []byte) error {
		replayed = append(replayed, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"op-1", "op-2"}; len(replayed) != 2 || replayed[0] != want[0] || replayed[1] != want[1] {
		t.Fatalf("replayed %v, want %v", replayed, want)
	}
	if stats.TornBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The log must be append-clean after truncation.
	if err := w2.Append([]byte("op-4"), true); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	replayed = nil
	w3, _, err := OpenWAL(path, func(p []byte) error {
		replayed = append(replayed, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if want := []string{"op-1", "op-2", "op-4"}; len(replayed) != 3 || replayed[2] != "op-4" {
		t.Fatalf("after re-append replayed %v, want %v", replayed, want)
	}
	if w3.Records() != 3 {
		t.Fatalf("Records() = %d, want 3", w3.Records())
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte("record"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 || w.Bytes() != 0 {
		t.Fatalf("after reset: records=%d bytes=%d", w.Records(), w.Bytes())
	}
	if err := w.Append([]byte("fresh"), true); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	w2, _, err := OpenWAL(path, func(p []byte) error { got = append(got, string(p)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 1 || got[0] != "fresh" {
		t.Fatalf("after reset+append replay = %v", got)
	}
}

func TestWALBatchedSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SyncEvery = 3
	for i := 0; i < 2; i++ {
		if err := w.Append([]byte("x"), false); err != nil {
			t.Fatal(err)
		}
	}
	if w.Unsynced() != 2 {
		t.Fatalf("unsynced = %d before threshold, want 2", w.Unsynced())
	}
	if err := w.Append([]byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if w.Unsynced() != 0 {
		t.Fatalf("unsynced = %d after threshold append, want 0", w.Unsynced())
	}
}

// TestWriteFileKeepsTheOldFileOnFailure: whichever storage call of an install
// fails, path still holds the previous bytes in full; once nothing fails it
// holds the new ones.
func TestWriteFileKeepsTheOldFileOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := WriteFile(OS, path, []byte("old state")); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"open", "write", "sync", "rename"} {
		on := true
		if err := WriteFile(failOn(op, syscall.EIO, &on), path, []byte("new state, longer")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("install with a failing %s: %v, want EIO", op, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old state" {
			t.Fatalf("after a failing %s the file holds %q (%v), want the old state", op, got, err)
		}
	}
	if err := WriteFile(OS, path, []byte("new state")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new state" {
		t.Fatalf("after an install the file holds %q (%v)", got, err)
	}
}
