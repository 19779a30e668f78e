package lucidd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The write path's JSON without encoding/json: request bodies in (decode), WAL
// records out (appendWalOp). Both are held byte-equal to encoding/json, the
// decoder in what a client sees (FuzzDecodeRequest), the encoder in what lands
// in the log (FuzzWalOpEncode), so old state dirs replay under this code and
// state dirs it writes replay under the code before it. Each hands anything
// unusual to encoding/json itself rather than copying more of its rules.

// The three hot request bodies. Each is an unnamed struct type on purpose:
// encoding/json names the type in some 400 texts, and these are the field
// lists the handlers always declared inline, so those texts are unchanged.
type (
	jobBody = struct {
		Name string `json:"name"`
		User string `json:"user"`
		VC   string `json:"vc"`
		GPUs int    `json:"gpus"`
		AMP  bool   `json:"amp"`
	}
	sampleBody = struct {
		Job        int     `json:"job"`
		GPUUtil    float64 `json:"gpu_util"`
		GPUMemMB   float64 `json:"gpu_mem_mb"`
		GPUMemUtil float64 `json:"gpu_mem_util"`
	}
	agentBody = struct {
		Name string `json:"name"`
		VC   string `json:"vc"`
		Node int    `json:"node"`
	}
)

// jobField, sampleField and agentField are the fast decoder's field lookups:
// the field a key names, spelled exactly as its json tag, as a *string, *int,
// *float64 or *bool; nil for any other key.
func jobField(v *jobBody, key []byte) any {
	switch string(key) {
	case "name":
		return &v.Name
	case "user":
		return &v.User
	case "vc":
		return &v.VC
	case "gpus":
		return &v.GPUs
	case "amp":
		return &v.AMP
	}
	return nil
}

func sampleField(v *sampleBody, key []byte) any {
	switch string(key) {
	case "job":
		return &v.Job
	case "gpu_util":
		return &v.GPUUtil
	case "gpu_mem_mb":
		return &v.GPUMemMB
	case "gpu_mem_util":
		return &v.GPUMemUtil
	}
	return nil
}

func agentField(v *agentBody, key []byte) any {
	switch string(key) {
	case "name":
		return &v.Name
	case "vc":
		return &v.VC
	case "node":
		return &v.Node
	}
	return nil
}

// fastBodyMax is the longest body the fast decoder reads; heartbeats, samples
// and submissions are 50–120 bytes.
const fastBodyMax = 512

var bodyBufs = sync.Pool{New: func() any { return new([fastBodyMax]byte) }}

// decode reads a request body into v, translating the body-cap error into 413
// and anything else into 400; it returns false after writing the error. With a
// field lookup it first reads the body into a pooled buffer and, if the whole
// body fits, tries parseFast. Everything else — a longer body, a read error,
// anything parseFast does not cover, and every body decoded without a lookup
// (/chaos) — is encoding/json's to decode, into a zeroed v, from the same byte
// stream: the buffered prefix, then the rest of the body. So the answers are
// encoding/json's, its 400 texts, its 413 and its ignored trailing bytes
// included.
func decode[T any](w http.ResponseWriter, r *http.Request, v *T, field func(v *T, key []byte) any) bool {
	var body io.Reader = r.Body
	if field != nil {
		buf := bodyBufs.Get().(*[fastBodyMax]byte)
		defer bodyBufs.Put(buf)
		n, err := 0, error(nil)
		for n < len(buf) && err == nil {
			var m int
			m, err = r.Body.Read(buf[n:])
			n += m
		}
		if err == io.EOF && parseFast(buf[:n], v, field) {
			return true
		}
		var zero T
		*v = zero
		body = io.MultiReader(bytes.NewReader(buf[:n]), r.Body)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return false
	}
	return true
}

// parseFast fills v from b if b holds one flat JSON object in the plainest
// encoding: every key a field name spelled exactly, every value what its field
// holds — an ASCII string without escapes, a JSON-grammar number that strconv
// parses (ParseInt for an int: no fraction, no exponent), true or false. Bytes
// after the object are ignored, as encoding/json's Decoder ignores them.
// Anything else reports false, possibly with some fields set.
func parseFast[T any](b []byte, v *T, field func(v *T, key []byte) any) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return true
	}
	for {
		key, end, ok := plainString(b, i)
		if !ok {
			return false
		}
		dst := field(v, key)
		if dst == nil {
			return false
		}
		if i = skipSpace(b, end); i == len(b) || b[i] != ':' {
			return false
		}
		if i, ok = parseValue(b, skipSpace(b, i+1), dst); !ok {
			return false
		}
		if i = skipSpace(b, i); i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return true
		default:
			return false
		}
	}
}

// parseValue parses the value at b[i:] into dst and returns where it ends.
func parseValue(b []byte, i int, dst any) (int, bool) {
	switch p := dst.(type) {
	case *string:
		s, end, ok := plainString(b, i)
		if ok {
			*p = string(s)
		}
		return end, ok
	case *bool:
		switch {
		case bytes.HasPrefix(b[i:], []byte("true")):
			*p = true
			return i + 4, true
		case bytes.HasPrefix(b[i:], []byte("false")):
			*p = false
			return i + 5, true
		}
	case *int:
		if end := scanNumber(b, i); end > i {
			n, err := strconv.ParseInt(string(b[i:end]), 10, strconv.IntSize)
			*p = int(n)
			return end, err == nil
		}
	case *float64:
		if end := scanNumber(b, i); end > i {
			f, err := strconv.ParseFloat(string(b[i:end]), 64)
			*p = f
			return end, err == nil
		}
	}
	return i, false
}

// plainString reads the string starting at b[i], which must hold only
// printable ASCII and no backslash, and returns its contents and the index
// past its closing quote.
func plainString(b []byte, i int) (s []byte, end int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// scanNumber returns the end of the JSON number starting at b[i], or i when
// there is none.
func scanNumber(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = skipDigits(b, j)
	default:
		return i
	}
	if j < len(b) && b[j] == '.' {
		if j = skipDigits(b, j+1); b[j-1] == '.' {
			return i
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := skipDigits(b, j)
		if k == j {
			return i
		}
		j = k
	}
	return j
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// jsonPlain reports whether s encodes as itself inside a JSON string under
// encoding/json's default escaping (no control chars, quotes, backslashes,
// HTML-escaped characters, or non-ASCII needing UTF-8 validation).
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONString appends s quoted exactly as encoding/json quotes it:
// verbatim when jsonPlain, by json.Marshal otherwise.
func appendJSONString(b []byte, s string) []byte {
	if jsonPlain(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(s) // a string always encodes
	return append(b, q...)
}

// appendJSONFloat appends f as encoding/json writes a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 on with a
// two-digit negative exponent trimmed (e-07 → e-7). NaN and ±Inf fail, as
// encoding/json refuses them.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendWalOp appends the WAL record of op: exactly the bytes json.Marshal(op)
// returns, every field but op omitted at its zero value (a -0 sample
// included), or json.Marshal's failure on a non-finite sample.
func appendWalOp(b []byte, op *walOp) ([]byte, error) {
	b = append(b, `{"op":`...)
	b = appendJSONString(b, op.Op)
	if op.ID != 0 {
		b = strconv.AppendInt(append(b, `,"id":`...), int64(op.ID), 10)
	}
	for _, f := range [...]struct{ key, v string }{{`,"name":`, op.Name}, {`,"user":`, op.User}, {`,"vc":`, op.VC}} {
		if f.v != "" {
			b = appendJSONString(append(b, f.key...), f.v)
		}
	}
	if op.GPUs != 0 {
		b = strconv.AppendInt(append(b, `,"gpus":`...), int64(op.GPUs), 10)
	}
	if op.AMP {
		b = append(b, `,"amp":true`...)
	}
	var err error
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"gpu_util":`, op.GPUUtil}, {`,"gpu_mem_mb":`, op.GPUMemMB}, {`,"gpu_mem_util":`, op.GPUMemUtil}} {
		if f.v != 0 {
			if b, err = appendJSONFloat(append(b, f.key...), f.v); err != nil {
				return b, err
			}
		}
	}
	if op.Node != 0 {
		b = strconv.AppendInt(append(b, `,"node":`...), int64(op.Node), 10)
	}
	if op.UnixNano != 0 {
		b = strconv.AppendInt(append(b, `,"unix_nano":`...), op.UnixNano, 10)
	}
	return append(b, '}'), nil
}
