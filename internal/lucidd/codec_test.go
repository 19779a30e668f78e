package lucidd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeOracle is the request decoder decode replaced: encoding/json straight
// off the body, the body-cap error as 413, anything else as 400.
func decodeOracle(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
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

// decodeBoth runs body through decode and through the oracle, each behind a
// limit-byte body cap as ServeHTTP sets one, and requires the same answer: the
// accept/reject decision, the status and error text, and the decoded struct.
// T is spelled out by the caller as the handler's struct type was before the
// fast path, so the field lookups only compile against that very type.
func decodeBoth[T comparable](t *testing.T, body []byte, limit int64, field func(v *T, key []byte) any) {
	t.Helper()
	run := func(dec func(w http.ResponseWriter, r *http.Request, v *T) bool) (v T, ok bool, code int, text string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		req.Body = http.MaxBytesReader(rec, req.Body, limit)
		ok = dec(rec, req, &v)
		return v, ok, rec.Code, rec.Body.String()
	}
	got, gotOK, gotCode, gotText := run(func(w http.ResponseWriter, r *http.Request, v *T) bool { return decode(w, r, v, field) })
	want, wantOK, wantCode, wantText := run(func(w http.ResponseWriter, r *http.Request, v *T) bool { return decodeOracle(w, r, v) })
	if gotOK != wantOK || gotCode != wantCode || gotText != wantText {
		t.Fatalf("body %q, cap %d: decode = (%v, %d, %q), encoding/json = (%v, %d, %q)",
			body, limit, gotOK, gotCode, gotText, wantOK, wantCode, wantText)
	}
	if gotOK && got != want {
		t.Fatalf("body %q, cap %d: decode = %+v, encoding/json = %+v", body, limit, got, want)
	}
}

// Bodies shaped as the benchmark and the load generator send them.
const (
	canonicalJob    = `{"name":"train-123","user":"user-07","vc":"vc-3","gpus":4,"amp":true}`
	canonicalSample = `{"job":1234,"gpu_util":87,"gpu_mem_mb":21034,"gpu_mem_util":64}`
	canonicalAgent  = `{"name":"agent-01234","vc":"vc-2","node":1234}`
)

// FuzzDecodeRequest holds decode to encoding/json on all three hot bodies, at
// the default body cap and at small ones.
func FuzzDecodeRequest(f *testing.F) {
	// The canonical bodies must take the fast path, not pass by falling back:
	// parseFast accepts them, and decoding one allocates no more than its
	// strings (the fallback allocates a decoder, its buffer and readers).
	var agent agentBody
	if !parseFast([]byte(canonicalAgent), &agent, agentField) ||
		!parseFast([]byte(canonicalJob), new(jobBody), jobField) ||
		!parseFast([]byte(canonicalSample), new(sampleBody), sampleField) {
		f.Fatal("a canonical body misses the fast path")
	}
	var rd bytes.Reader
	req := httptest.NewRequest(http.MethodPost, "/agents", nil)
	req.Body = io.NopCloser(&rd)
	w := &discardWriter{hdr: http.Header{}}
	if n := testing.AllocsPerRun(200, func() {
		rd.Reset([]byte(canonicalAgent))
		if !decode(w, req, &agent, agentField) {
			f.Fatal("canonical heartbeat rejected")
		}
	}); n > 3 {
		f.Errorf("decoding a heartbeat allocates %v times, want its two strings (+1 for a pool miss)", n)
	}

	for _, body := range []string{
		canonicalJob, canonicalSample, canonicalAgent,
		`{}`, ` {"name":"a","gpus":1} trailing garbage`, `{"name":"a"}{"name":"b"}`,
		`{"gpus":1e400}`, `{"gpu_util":1e400}`, `{"gpu_util":-1e-400}`, `{"gpus":01}`, `{"gpus":-0}`,
		`{"gpus":1.0}`, `{"gpus":1e2}`, `{"gpu_util":1.}`, `{"gpu_util":.5}`, `{"gpu_util":+1}`,
		`{"gpus":9223372036854775807}`, `{"gpus":9223372036854775808}`, `{"gpu_util":0x10}`,
		`{"Job":1}`, `{"NAME":"x"}`, `{"name":"x","name":"y"}`, `{"n\u0061me":"esc"}`, `{"name":"a\"b"}`,
		`{"name":null}`, `{"amp":null}`, `{"amp":"true"}`, `{"amp":tru}`, `{"gpus":"2"}`,
		`{"name":"\xff"}`, `{"name":"é"}`, `{"name":"<&>"}`, `{"vc":{"nested":1}}`, `{"vc":[1]}`,
		`null`, `[]`, `"str"`, `1`, ``, `   `, `{`, `{"name"`, `{"name":`, `{"name":"a",}`, `{,}`,
		`{"unknown":1}`, "{\"name\":\"a\"\t,\r\n\"node\" : 3 }", "\xef\xbb\xbf{}",
		`{"name":"` + strings.Repeat("x", 600) + `"}`,
	} {
		f.Add([]byte(body), uint16(0))
		f.Add([]byte(body), uint16(24))
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		capBytes := int64(limit)
		if capBytes == 0 {
			capBytes = Options{}.withDefaults().MaxBodyBytes
		}
		decodeBoth[struct {
			Name string `json:"name"`
			User string `json:"user"`
			VC   string `json:"vc"`
			GPUs int    `json:"gpus"`
			AMP  bool   `json:"amp"`
		}](t, body, capBytes, jobField)
		decodeBoth[struct {
			Job        int     `json:"job"`
			GPUUtil    float64 `json:"gpu_util"`
			GPUMemMB   float64 `json:"gpu_mem_mb"`
			GPUMemUtil float64 `json:"gpu_mem_util"`
		}](t, body, capBytes, sampleField)
		decodeBoth[struct {
			Name string `json:"name"`
			VC   string `json:"vc"`
			Node int    `json:"node"`
		}](t, body, capBytes, agentField)
	})
}

// FuzzWalOpEncode holds appendWalOp to json.Marshal: the same bytes, appended
// after what the buffer held, and an error exactly where json.Marshal fails.
func FuzzWalOpEncode(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, op := range []walOp{
		{Op: "job", ID: 17, Name: "train-123", User: "user-07", VC: "vc-3", GPUs: 4, AMP: true},
		{Op: "metrics", ID: 1234, GPUUtil: 87, GPUMemMB: 21034, GPUMemUtil: 64.25},
		{Op: "agent", Name: "agent-01234", VC: "vc-2", Node: 1234, UnixNano: 1700000000123456789},
		{Op: "evict-agent", Name: "<a&b>", VC: "\u2028é\xff\"\\\n"},
		{Op: "fail-job", ID: -3, Node: -1, UnixNano: math.MinInt64},
		{Op: "metrics", GPUUtil: negZero, GPUMemMB: 1e-6, GPUMemUtil: math.Nextafter(1e-6, 0)},
		{Op: "metrics", GPUUtil: 1e21, GPUMemMB: math.Nextafter(1e21, 0), GPUMemUtil: 5e-324},
		{Op: "metrics", GPUUtil: math.MaxFloat64, GPUMemMB: -math.MaxFloat64, GPUMemUtil: 1e-7},
		{Op: "metrics", GPUUtil: 1.5e-10, GPUMemMB: 1e100, GPUMemUtil: -2.5e-300},
		{Op: "metrics", GPUUtil: math.NaN()},
		{Op: "metrics", GPUMemMB: math.Inf(1)},
		{Op: "metrics", GPUMemUtil: math.Inf(-1)},
		{},
	} {
		f.Add(op.Op, op.ID, op.Name, op.User, op.VC, op.GPUs, op.AMP, op.GPUUtil, op.GPUMemMB, op.GPUMemUtil, op.Node, op.UnixNano)
	}
	f.Fuzz(func(t *testing.T, kind string, id int, name, user, vc string, gpus int, amp bool,
		util, memMB, memUtil float64, node int, unixNano int64) {
		op := walOp{Op: kind, ID: id, Name: name, User: user, VC: vc, GPUs: gpus, AMP: amp,
			GPUUtil: util, GPUMemMB: memMB, GPUMemUtil: memUtil, Node: node, UnixNano: unixNano}
		want, wantErr := json.Marshal(&op)
		got, err := appendWalOp([]byte("held"), &op)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: appendWalOp error %v, json.Marshal error %v", op, err, wantErr)
		}
		if err == nil && (string(got[:4]) != "held" || !bytes.Equal(got[4:], want)) {
			t.Fatalf("%+v:\nappendWalOp  %s\njson.Marshal %s", op, got, want)
		}
	})
}
