package wire_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/httpx"
	"gobad/internal/wire"
)

// sameDecode fails t unless a decode gave the value and the error text
// encoding/json gives.
func sameDecode(t *testing.T, what string, data []byte, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s of %q: error %v, encoding/json %v", what, data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s of %q:\n got %#v\nwant %#v", what, data, got, want)
	}
}

// checkEncode holds AppendValue and Marshal to json.Marshal on v: the same
// bytes when AppendValue takes v, dst untouched when it declines, and
// Marshal's bytes and error json.Marshal's either way.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, ok := wire.AppendValue([]byte("x"), v)
	switch {
	case ok && (wantErr != nil || !bytes.Equal(got[1:], want)):
		t.Fatalf("AppendValue(%#v) = %s, json.Marshal %s, %v", v, got[1:], want, wantErr)
	case !ok && string(got) != "x":
		t.Fatalf("AppendValue(%#v) declined but wrote %q", v, got)
	}
	m, err := wire.Marshal(v)
	sameDecode(t, "Marshal", want, m, err, want, wantErr)
}

// checkString holds AppendJSONString to json.Marshal, and Reader.Str to
// json.Unmarshal on the result.
func checkString(t *testing.T, s string) {
	t.Helper()
	want, _ := json.Marshal(s)
	if got := wire.AppendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("AppendJSONString(%q) = %s, want %s", s, got[1:], want)
	}
	var back string
	_ = json.Unmarshal(want, &back)
	r := wire.NewReader(string(want))
	if got, ok := r.Str(); !ok || !r.End() || got != back {
		t.Fatalf("Str(%s) = %q, %v; encoding/json %q", want, got, ok, back)
	}
}

// checkValue holds Reader.Value to json.Unmarshal into an any: what the
// reader takes, encoding/json decodes to the same value.
func checkValue(t *testing.T, data []byte) {
	t.Helper()
	var want any
	wantErr := json.Unmarshal(data, &want)
	r := wire.NewReader(string(data))
	if got, ok := r.Value(); ok && r.End() {
		sameDecode(t, "Value", data, got, nil, want, wantErr)
	}
	if wantErr == nil {
		checkEncode(t, want)
	}
}

// The broker's frames decoded by encoding/json into method-less copies:
// what a declined frame is decoded into. getRequest stands for the
// broker's own (its error text names broker.getRequest).
type (
	resultsResponseFields broker.ResultsResponse
	pushFields            broker.PushNotification
	getRequest            struct {
		Get string `json:"get"`
		ID  int64  `json:"id"`
		Ack int64  `json:"ack"`
		TP  string `json:"tp"`
	}
)

// checkFrames holds the notification socket's three frame readers to
// encoding/json: the results body or reply (through UnmarshalJSON and
// through json.Unmarshal, the HTTP fallback's way), the push frame and the
// retrieval request.
func checkFrames(t *testing.T, data []byte) {
	t.Helper()
	var rr, viaJSON broker.ResultsResponse
	var rrWant resultsResponseFields
	err, wantErr := rr.UnmarshalJSON(data), wire.RenameTypeError[broker.ResultsResponse, resultsResponseFields](json.Unmarshal(data, &rrWant))
	sameDecode(t, "ResultsResponse", data, rr, err, broker.ResultsResponse(rrWant), wantErr)
	err = json.Unmarshal(data, &viaJSON)
	sameDecode(t, "json.Unmarshal into ResultsResponse", data, viaJSON, err, broker.ResultsResponse(rrWant), wantErr)

	var n broker.PushNotification
	var nWant pushFields
	err, wantErr = n.UnmarshalJSON(data), wire.RenameTypeError[broker.PushNotification, pushFields](json.Unmarshal(data, &nWant))
	sameDecode(t, "PushNotification", data, n, err, broker.PushNotification(nWant), wantErr)

	var g getRequest
	fs, id, ack, tp, err := broker.ParseGetRequest(data)
	wantErr = json.Unmarshal(data, &g)
	if wantErr != nil {
		wantErr = fmt.Errorf("%s", strings.ReplaceAll(wantErr.Error(), "wire_test.getRequest", "broker.getRequest"))
	}
	sameDecode(t, "request frame", data, getRequest{fs, id, ack, tp}, err, g, wantErr)
}

// checkEnvelope holds bdms.ReadCallback to httpx.ReadJSON's decode of the
// envelope into a NotificationPayload, split into its entries.
func checkEnvelope(t *testing.T, data []byte) {
	t.Helper()
	got, err := bdms.ReadCallback(httptest.NewRequest(http.MethodPost, "/v1/callbacks/results", bytes.NewReader(data)))
	var p bdms.NotificationPayload
	var want []bdms.NotificationPayload
	wantErr := httpx.ReadJSON(httptest.NewRequest(http.MethodPost, "/v1/callbacks/results", bytes.NewReader(data)), &p)
	if wantErr == nil {
		more := p.More
		p.More = nil
		want = append([]bdms.NotificationPayload{p}, more...)
	}
	sameDecode(t, "webhook envelope", data, got, err, want, wantErr)
}

// ingest is a cluster, its REST handler and the sequence number it has
// stored up to; fresh every 512 records, so a long fuzz run stays small.
var ingest struct {
	c    *bdms.Cluster
	h    http.Handler
	seen uint64
}

// checkIngest holds both ingest routes to what the parent's
// httpx.ReadJSON decode gives: the same 400 and error text for a body it
// refuses, else the records encoding/json decodes, stored — or refused
// with the error the cluster gives those records.
func checkIngest(t *testing.T, data []byte) {
	t.Helper()
	if ingest.c == nil || ingest.seen > 512 {
		ingest.c = bdms.NewCluster()
		if err := ingest.c.CreateDataset("D", bdms.Schema{}); err != nil {
			t.Fatal(err)
		}
		ingest.h, ingest.seen = bdms.NewServer(ingest.c).Handler(), 0
	}
	for _, batch := range []bool{false, true} {
		path := "/v1/datasets/D/records"
		var want []map[string]any
		var decodeErr, ingestErr error
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
		if batch {
			var b bdms.BatchIngestRequest
			decodeErr, want = httpx.ReadJSON(req, &b), b.Records
		} else {
			var m map[string]any
			decodeErr, want = httpx.ReadJSON(req, &m), []map[string]any{m}
		}
		if batch {
			path += ":batch"
		}
		rec := httptest.NewRecorder()
		ingest.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		if rec.Code == http.StatusCreated {
			stored := ingest.c.Dataset("D").ScanSince(ingest.seen)
			got := make([]map[string]any, len(stored))
			for i, r := range stored {
				got[i] = r.Data
			}
			ingest.seen += uint64(len(stored))
			sameDecode(t, path, data, got, nil, want, decodeErr)
			continue
		}
		var env httpx.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest {
			t.Fatalf("%s of %q: %d %s", path, data, rec.Code, rec.Body)
		}
		if ingestErr = decodeErr; ingestErr == nil {
			if batch {
				_, ingestErr = ingest.c.IngestBatch("D", want)
			} else {
				_, ingestErr = ingest.c.Ingest("D", want[0])
			}
		}
		if ingestErr == nil || env.Error.Message != ingestErr.Error() {
			t.Fatalf("%s of %q: refused with %q, want %v", path, data, env.Error.Message, ingestErr)
		}
	}
}

// answer is a transport that answers every request 200 with one body.
type answer []byte

func (a answer) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, ContentLength: int64(len(a)),
		Body: io.NopCloser(bytes.NewReader(a))}, nil
}

// checkPull holds bdms.Client's results and results:batch decodes to
// encoding/json's decode of the same body.
func checkPull(t *testing.T, data []byte) {
	t.Helper()
	c := bdms.NewClient("http://cluster.invalid", &http.Client{Transport: answer(data)})
	ctx := context.Background()
	got, err := c.ResultsContext(ctx, "s", 0, 1, false)
	var want bdms.ResultsResponse
	wantErr := json.Unmarshal(data, &want)
	if wantErr != nil {
		wantErr, want.Results = fmt.Errorf("httpx: decode response: %w", wantErr), nil
	}
	sameDecode(t, "results body", data, got, err, want.Results, wantErr)

	ranges := []bdms.ResultRange{{SubscriptionID: "s", ToNS: 1}}
	gotRanges, err := c.ResultsBatchContext(ctx, ranges)
	var wantBatch bdms.ResultsBatchResponse
	switch wantErr = json.Unmarshal(data, &wantBatch); {
	case wantErr != nil:
		wantErr = fmt.Errorf("httpx: decode response: %w", wantErr)
	case len(wantBatch.Ranges) != len(ranges):
		wantErr = fmt.Errorf("bdms: results batch answered %d of %d ranges", len(wantBatch.Ranges), len(ranges))
	}
	if wantErr != nil {
		wantBatch.Ranges = nil
	}
	sameDecode(t, "results:batch body", data, gotRanges, err, wantBatch.Ranges, wantErr)
}

// checkFloat holds AppendValue and Marshal to json.Marshal on the float64
// whose bits data's first eight bytes are (NaN and ±Inf declined), alone
// and inside a row, and on an int, which the codec always declines.
func checkFloat(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 8 {
		return
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(data))
	checkEncode(t, f)
	checkEncode(t, []map[string]any{{"f": f, "s": string(data[8:])}})
	checkEncode(t, map[string]any{"n": len(data)})
}

// FuzzWire holds the codec to encoding/json on any bytes: AppendValue and
// Marshal to json.Marshal (every decline included), and every document
// reader — results body and reply, push frame, request frame, webhook
// envelope, single and batch ingest bodies, results:batch — to
// encoding/json's value and error text.
func FuzzWire(f *testing.F) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rows := `[{"big":1.7976931348623157e+308,"key":"a\"b\\c/\u003c\u0026\u003e\u2028\u2029\t\u0001","neg":-5e-324,"nested":{"list":[1.5,"é日本😀",true,false,null,[],{}]},"none":null,"pub":7,"re":9,"zero":-0},{}]`
	results := `{"results":[{"id":"bs-1-r000001","timestamp_ns":1,"size":2,"rows":` + rows + `,"from_cache":true},{"id":"odd \"id\" \ufffd é","timestamp_ns":9223372036854775807,"size":0,"from_cache":false}],"latest_ns":9223372036854775807`
	obj := `{"id":"bsub-000001-r000002","subscription_id":"bsub-000001","timestamp":2,"prev_ns":1,"rows":` + rows + `,"size":233}`
	for _, seed := range []string{
		// The frames the broker's writers produce, then the frame
		// reader's edge cases.
		results + `,"re":1}` + "\n",
		`{"results":[],"latest_ns":0,"re":9223372036854775807}` + "\n",
		results + "}\n",
		`{"results":[],"latest_ns":0,"stale":true}` + "\n",
		`{"type":"results","bs":"bs-000001","latest_ns":12345}`,
		`{"type":"results","bs":"bs \u2028 \ufffd","latest_ns":-1,"tp":"` + tp + `"}`,
		`{"get":"broker-1-fs000001","id":1,"ack":0}`,
		`{"get":"fs \u003cé\u003e","id":9223372036854775807,"ack":42,"tp":"` + tp + `"}`,
		`{"results":[{"id":"\"\\\/\b\f\n\r\t\u003c\u0026\u2028\ufffd","rows":[{"k\u00e9":"\ud83d\ude00"}]}]}`,
		`{"results":[{"id":"raw é 日本 ` + "\xff\xfe\xed\xa0\x80" + `"}],"latest_ns":1}`,
		`{"results":[{"rows":[{"lone":"\ud800","low":"\udc00","pair?":"\ud800\u0041","esc":"\ud800\\u0041","two":"\ud800\ud800\udc00"}]}]}`,
		`{"results":[{"rows":[{"a":-0,"b":1E+2,"c":1e-400}]}],"latest_ns":-0}`,
		`{"results":[{"rows":[{"a":1e400}]}]}`,
		`{"latest_ns":1e400}`,
		`{"latest_ns":01}`,
		`{"latest_ns":1E+2}`,
		`{"Results":[],"LATEST_NS":5}`,
		`{"type":"results","TYPE":"x","Bs":"b"}`,
		`{"latest_ns":1,"latest_ns":2}`,
		`{"results":[{"id":"a","size":1}],"results":[{"id":"b"}]}`,
		`{"get":"a","get":"b","id":1}`,
		`{"results":[{"rows":[{"k":1,"k":2}]}]}`,
		`{"results":[{"rows":null},{"rows":[]},{"rows":[null]}]}`,
		`{"results":null,"stale":true}`,
		`{"results":[null]}`,
		`{"results":[{"id":"x","rows":[{"re":3}],"from_cache":true}],"latest_ns":7,"re":3}` + "\n",
		" \t\r\n{ \"latest_ns\" : 4 , \"results\" : [ ] } \n",
		`{"latest_ns":4} x`,
		`{"latest_ns":4}{}`,
		`{"re":1,"status":502,"error":{"code":"internal","message":"m","retryable":true}}`,
		`{"id":"1","ack":null,"tp":7}`,
		`null`,
		`[]`,
		``,
		// Strings for AppendJSONString: the data itself is one.
		"", "bsub-000001-r000001", `"\`, "<>&", "\u2028\u2029",
		"\x00\x1f\x7f", "\b\f\n\r\t", "na\u00efve \U0001f525", "\xff\xfe", "\xe2\x80", "a\xc3(b",
		// The cluster leg's documents: webhook envelopes, results and
		// results:batch bodies, ingest bodies.
		`{"subscription_id":"bsub-000001","latest_ns":42}`,
		`{"subscription_id":"bsub-000001","latest_ns":2,"results":[` + obj + `],"more":[{"subscription_id":"bsub-000002","latest_ns":3},{"subscription_id":"q\"b\\s\u003cx\u003e\u0026 ","latest_ns":3,"results":[]}]}`,
		`{"subscription_id":"a","more":[{"subscription_id":"b","more":[{"subscription_id":"c"}]}],"result":{"id":"old"}}`,
		`{"subscription_id":"a","results":[{"id":"r","rows":null,"size":0},{"Rows":[1]}]}`,
		`{"results":[` + obj + `,{"id":"no-rows","subscription_id":"bsub-000002","timestamp":4,"rows":null,"size":0}]}` + "\n",
		`{"ranges":[{"results":[` + obj + `]},{"error":"bdms: unknown subscription \"x\u003cy\u003e\""},{}]}` + "\n",
		`{"ranges":[{"results":[],"error":"partial"}]}`,
		`{"ranges":null}`,
		`{"timestamp":1.5}`,
		`{"etype":"fire","severity":3,"location":{"lat":33.64,"lon":-117.84}}`,
		`{"records":[{"etype":"fire","severity":3},{"etype":"flood","note":"a\u2028b"},null]}`,
		`{"records":[{"a":1}],"records":[{"b":2}]}`,
		`{"Records":[{"a":1}]}`,
		`{"records":[]}`,
		`{"etype":"fire"} trailing`,
		`{"n":1e400}`,
		"\x00\x00\x00\x00\x00\x00\xf8\x7f NaN bits",
		"\x00\x00\x00\x00\x00\x00\xf0\x7f +Inf bits",
		"\x8d\xed\xb5\xa0\xf7\xc6\xb0\x3e 1e-6 bits",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkString(t, string(data))
		checkValue(t, data)
		checkFloat(t, data)
		checkFrames(t, data)
		checkEnvelope(t, data)
		checkIngest(t, data)
		checkPull(t, data)
	})
}

// TestMatchesEncodingJSON is the codec's equality table: strings through
// AppendJSONString and Reader.Str, values through AppendValue, Marshal
// and Reader.Value, and the values AppendValue declines.
func TestMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "bsub-000001", "bsub-000001-r000001", `say "hi"`, `back\slash`, `"\`, "<a>&b", "<>&",
		"naïve → ünïcode", "na\u00efve \U0001f525", "é日本😀", "bad\xffutf8", "\xff\xfe", "\xe2\x80", "a\xc3(b",
		"tab\tnl\n", "\b\f\n\r\t", "\x00\x1f\x7f", "sep\u2028", "\u2028\u2029", "a\u2028b \u00e9\x01",
		`q"b\s<x>&` + "\u2028\x00\xff", "sub\u00e9", `bdms: unknown subscription "x<y>"`,
	} {
		checkString(t, s)
		checkEncode(t, s)
	}
	nested := map[string]any{
		"etype":    "fire",
		"location": map[string]any{"lat": 33.64, "lon": -117.84},
		"shelters": []any{map[string]any{"id": "s<1>&", "beds": 12.0}, nil, true},
		"note":     "a\u2028b \u00e9\x01",
	}
	for _, v := range []any{
		nil, true, false, 0.0, math.Copysign(0, -1), 1.0, -7.0, 12.5, 33.64, 1e20, 1e21, 123456789e13, 1e-6, 1e-7,
		9.999999e-7, 5e-324, -4.9e-324, 1.7976931348623157e308, -1e-300, 0.1 + 0.2,
		map[string]any{}, map[string]any(nil), []any{}, []any(nil), []map[string]any{}, []map[string]any(nil),
		[]map[string]any{nil, {}}, nested, []map[string]any{nested, {"big": 1e21, "tiny": 1e-7}},
		map[string]any{"b": 1.0, "a": 2.0, "B": 3.0, "é": 4.0, "": 5.0, "a\u2028": 6.0, "<": 7.0},
		[]any{[]any{[]any{}}, map[string]any{"k": []any{nil}}},
	} {
		checkEncode(t, v)
		if b, err := json.Marshal(v); err == nil {
			checkValue(t, b)
		}
	}
	deep := any(1.0)
	for i := 0; i <= wire.MaxDepth; i++ {
		deep = []any{deep}
	}
	for _, v := range []any{
		1, int64(1), float32(1.5), math.NaN(), math.Inf(1), math.Inf(-1), json.Number("1"),
		struct{ A int }{1}, map[string]int{"a": 1}, []string{"a"}, []byte("a"),
		map[string]any{"ok": 1.0, "no": 2}, []any{1.0, math.NaN()}, []map[string]any{{"x": map[string]any{"y": int8(1)}}},
		deep,
	} {
		if _, ok := wire.AppendValue(nil, v); ok {
			t.Errorf("AppendValue(%#v) took a value outside the JSON data model", v)
		}
		checkEncode(t, v)
	}
}

// TestWriterAllocations: the writers allocate only the bytes they return
// — nothing at all into a buffer with room — and Marshal one result, as
// json.Marshal's pooled encoder does.
func TestWriterAllocations(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own")
	}
	row := []map[string]any{{"etype": "fire", "severity": 3.0, "location": map[string]any{"lat": 33.64, "lon": -117.84},
		"tags": []any{"a", true, nil}}}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = wire.AppendJSONString(buf[:0], "bsub-000001 <é>") }); n != 0 {
		t.Errorf("AppendJSONString = %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = wire.AppendValue(buf[:0], row) }); n != 0 {
		t.Errorf("AppendValue = %v allocs, want 0", n)
	}
	v := any(row)
	if n := testing.AllocsPerRun(100, func() { _, _ = wire.Marshal(v) }); n > 1 {
		t.Errorf("Marshal = %v allocs, want 1", n)
	}
}

// raceBuild reports a -race test binary, whose instrumentation allocates
// on its own.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
