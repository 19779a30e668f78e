// Package snap is the durable-state substrate: versioned, self-describing
// snapshot envelopes and a CRC-framed write-ahead log, both stdlib-only and
// deterministic. Two higher layers build on it:
//
//   - the simulator (internal/sim) serializes its complete world — clock,
//     clusters, job runtime state, chaos state, recorder digest, scheduler
//     policy state — into one envelope, enabling crash-consistent resume and
//     time-travel forks that are bit-identical to an uninterrupted run;
//   - the lucidd control plane (internal/lucidd) logs every mutating request
//     to a WAL and periodically compacts it into a snapshot, so a SIGKILLed
//     daemon recovers every acknowledged submission on restart.
//
// Determinism is load-bearing: an envelope's payload is canonical JSON
// (struct fields in declaration order, map keys sorted by encoding/json),
// so snapshotting the same state twice yields byte-identical files and the
// FNV-1a digest in the header doubles as a state fingerprint.
package snap

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Envelope header layout (little-endian):
//
//	magic   [8]byte  "LUCSNAP1"
//	version uint32   format version (CurrentVersion)
//	kindLen uint16   length of the kind string
//	kind    []byte   payload kind, e.g. "sim-world", "lucidd-state"
//	payLen  uint64   payload length in bytes
//	digest  uint64   FNV-1a over the payload
//	payload []byte
const (
	magic = "LUCSNAP1"
	// CurrentVersion is the envelope format version. Readers reject other
	// versions loudly instead of misparsing.
	CurrentVersion = 1
	// maxKindLen bounds the kind string so a corrupted header cannot force
	// a large allocation.
	maxKindLen = 255
)

// FNV-1a 64-bit parameters (shared with internal/dtrace's trace digest).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Digest returns the FNV-1a hash of b.
func Digest(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// DigestString renders a digest the way the decision-trace recorder does:
// 16 hex digits.
func DigestString(d uint64) string { return fmt.Sprintf("%016x", d) }

// WriteEnvelope frames payload as a versioned, digest-protected snapshot of
// the given kind.
func WriteEnvelope(w io.Writer, kind string, payload []byte) error {
	if len(kind) == 0 || len(kind) > maxKindLen {
		return fmt.Errorf("snap: kind %q must be 1..%d bytes", kind, maxKindLen)
	}
	hdr := make([]byte, 0, len(magic)+4+2+len(kind)+8+8)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, CurrentVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(kind)))
	hdr = append(hdr, kind...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	hdr = binary.LittleEndian.AppendUint64(hdr, Digest(payload))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("snap: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("snap: write payload: %w", err)
	}
	return nil
}

// ReadEnvelope parses an envelope of the given kind and returns its payload,
// verifying magic, version, kind and payload digest. Truncated or corrupted
// input fails with a descriptive error, never a zero-valued payload, and the
// payload grows with the bytes that arrive, not with the length claimed.
func ReadEnvelope(r io.Reader, kind string) ([]byte, error) {
	fixed := make([]byte, len(magic)+4+2)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return nil, fmt.Errorf("snap: truncated header: %w", err)
	}
	if string(fixed[:len(magic)]) != magic {
		return nil, fmt.Errorf("snap: bad magic %q", fixed[:len(magic)])
	}
	ver := binary.LittleEndian.Uint32(fixed[len(magic):])
	if ver != CurrentVersion {
		return nil, fmt.Errorf("snap: unsupported version %d (want %d)", ver, CurrentVersion)
	}
	kindLen := int(binary.LittleEndian.Uint16(fixed[len(magic)+4:]))
	if kindLen == 0 || kindLen > maxKindLen {
		return nil, fmt.Errorf("snap: bad kind length %d", kindLen)
	}
	rest := make([]byte, kindLen+8+8)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("snap: truncated header: %w", err)
	}
	if got := string(rest[:kindLen]); got != kind {
		return nil, fmt.Errorf("snap: envelope kind %q, want %q", got, kind)
	}
	payLen := binary.LittleEndian.Uint64(rest[kindLen:])
	wantDigest := binary.LittleEndian.Uint64(rest[kindLen+8:])
	if payLen > 1<<33 {
		return nil, fmt.Errorf("snap: implausible payload length %d", payLen)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(payLen)))
	if err == nil && uint64(len(payload)) < payLen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("snap: truncated payload (%d of %d bytes): %w", len(payload), payLen, err)
	}
	if got := Digest(payload); got != wantDigest {
		return nil, fmt.Errorf("snap: payload digest mismatch: got %s want %s",
			DigestString(got), DigestString(wantDigest))
	}
	return payload, nil
}
