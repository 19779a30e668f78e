package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzWALRecord throws arbitrary bytes at the record parser and checks the
// contract: every outcome is clean EOF, a valid record, or ErrCorrupt —
// never a panic, never a huge allocation, and a parsed record re-frames to
// the exact prefix it was read from.
func FuzzWALRecord(f *testing.F) {
	seed := func(payloads ...[]byte) []byte {
		var buf []byte
		for _, p := range payloads {
			var err error
			if buf, err = appendFrame(buf, p); err != nil {
				f.Fatal(err)
			}
		}
		return buf
	}
	f.Add([]byte{})
	f.Add(seed([]byte("hello")))
	f.Add(seed([]byte(""), []byte(`{"op":"job","name":"resnet50"}`)))
	f.Add(seed([]byte("a"))[:5]) // torn tail
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		consumed := 0
		for {
			before := len(data) - r.Len()
			payload, err := ReadRecord(r)
			if err == io.EOF {
				if before != len(data) {
					t.Fatalf("clean EOF with %d unconsumed bytes", len(data)-before)
				}
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error is neither EOF nor ErrCorrupt: %v", err)
				}
				break
			}
			// A valid record must re-encode to the exact bytes it came from.
			after := len(data) - r.Len()
			re, aerr := appendFrame(nil, payload)
			if aerr != nil {
				t.Fatalf("re-frame: %v", aerr)
			}
			if !bytes.Equal(re, data[before:after]) {
				t.Fatalf("re-framed record differs from source frame at %d..%d", before, after)
			}
			consumed = after
		}
		_ = consumed
	})
}

// FuzzReadEnvelope: snapshot files come from outside the program, so any bytes
// must give a payload or an error — never a panic, and never an allocation
// sized by the header's length field instead of by the bytes that are there.
// An accepted payload re-frames to the prefix it was read from.
func FuzzReadEnvelope(f *testing.F) {
	var env bytes.Buffer
	if err := WriteEnvelope(&env, "sim-world", []byte(`{"now":3600,"jobs":[1,2,3]}`)); err != nil {
		f.Fatal(err)
	}
	whole := env.Bytes()
	huge := bytes.Clone(whole)
	binary.LittleEndian.PutUint64(huge[len(magic)+4+2+len("sim-world"):], 1<<32) // claims 4 GiB
	f.Add(whole)
	f.Add(whole[:len(whole)-5])
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, err := ReadEnvelope(bytes.NewReader(data), "sim-world")
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(data))+1<<20 {
			t.Fatalf("%d bytes of input allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteEnvelope(&re, "sim-world", payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, re.Bytes()) {
			t.Fatal("accepted payload does not re-frame to the input's prefix")
		}
	})
}

// FuzzOpenWAL: over any file bytes, recovery replays exactly the frames
// ReadRecord accepts, in order, truncates the file to their end and reports
// every byte past it as torn.
func FuzzOpenWAL(f *testing.F) {
	var log []byte
	for _, p := range []string{"op-1", "", `{"op":"job","name":"resnet50"}`} {
		var err error
		if log, err = appendFrame(log, []byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(log)
	f.Add(log[:len(log)-3])                           // torn tail
	f.Add(append(bytes.Clone(log), 0xff, 0xff, 0xff)) // garbage after the last frame
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "wal")

	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]byte
		r := bytes.NewReader(data)
		end := int64(0)
		for {
			p, err := ReadRecord(r)
			if err != nil {
				break
			}
			want = append(want, p)
			end = r.Size() - int64(r.Len())
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		w, stats, err := OpenWAL(path, func(p []byte) error { got = append(got, p); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if stats.Records != len(want) || len(got) != len(want) {
			t.Fatalf("replayed %d records (stats %d), ReadRecord accepts %d", len(got), stats.Records, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: replayed %q, ReadRecord read %q", i, got[i], want[i])
			}
		}
		if stats.TornBytes != int64(len(data))-end || w.Bytes() != end {
			t.Fatalf("torn %d bytes, log %d bytes; want %d and %d", stats.TornBytes, w.Bytes(), int64(len(data))-end, end)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != end {
			t.Fatalf("file is %d bytes after recovery, want %d", fi.Size(), end)
		}
	})
}
