package snap

import (
	"bytes"
	"errors"
	"io"
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
