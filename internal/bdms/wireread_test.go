package bdms

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"gobad/internal/httpx"
	"gobad/internal/wire"
)

// TestWireWritersTakeDirectPath: every document the cluster leg's writers
// produce — webhook envelopes, results and results:batch bodies, the
// client's ingest bodies, over random IDs and rows written by
// wire.Marshal as evaluate writes them — is read by the direct path, never
// handed to encoding/json, and decodes as encoding/json decodes it; the
// WAL's ingest records are json.Marshal's bytes.
func TestWireWritersTakeDirectPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		objs := make([]ResultObject, rng.Intn(4))
		for k := range objs {
			rows, err := wire.Marshal(randRecords(rng))
			if err != nil {
				t.Fatal(err)
			}
			objs[k] = ResultObject{ID: randString(rng), SubscriptionID: randString(rng), Timestamp: time.Duration(rng.Int63()),
				PrevNS: rng.Int63n(2) * rng.Int63(), Rows: rows, Size: int64(len(rows))}
		}
		if rng.Intn(3) == 0 {
			objs = nil
		}
		p := NotificationPayload{SubscriptionID: randString(rng), LatestNS: rng.Int63(), Results: objs}
		for k := rng.Intn(3); k > 0; k-- {
			p.More = append(p.More, NotificationPayload{SubscriptionID: randString(rng), LatestNS: rng.Int63(), Results: objs[:rng.Intn(len(objs)+1)]})
		}
		ranges := []RangeResults{{Results: objs}, {Error: randString(rng)}, {}}
		recs := randRecords(rng)
		single, err := wire.Marshal(recs[0])
		if err != nil {
			t.Fatal(err)
		}
		batch, err := wire.Marshal(map[string]any{"records": recs})
		if err != nil {
			t.Fatal(err)
		}

		var gotP, wantP NotificationPayload
		checkDirect(t, "webhook envelope", appendNotificationPayload(nil, p),
			func(r *wire.Reader) bool { return readNotificationPayload(r, &gotP) }, &gotP, &wantP)
		var gotR, wantR ResultsResponse
		checkDirect(t, "results body", appendResultsResponse(nil, objs),
			func(r *wire.Reader) bool { return readResultsBody(r, &gotR) }, &gotR, &wantR)
		var gotB, wantB ResultsBatchResponse
		checkDirect(t, "results:batch body", appendResultsBatchResponse(nil, ranges),
			func(r *wire.Reader) bool { return readResultsBatchBody(r, &gotB) }, &gotB, &wantB)
		var gotS, wantS map[string]any
		checkDirect(t, "ingest body", single,
			func(r *wire.Reader) (ok bool) { gotS, ok = r.Map(); return ok }, &gotS, &wantS)
		var gotI, wantI BatchIngestRequest
		checkDirect(t, "batch ingest body", batch,
			func(r *wire.Reader) bool { return readBatchIngestBody(r, &gotI.Records) }, &gotI, &wantI)

		for _, data := range recs {
			rec := walRecord{Kind: walKindIngest, Dataset: randString(rng), Data: data, AtNS: rng.Int63()}
			want, err := json.Marshal(rec)
			if got, ok := appendIngestRecord(nil, rec); !ok || err != nil || !bytes.Equal(got, want) {
				t.Fatalf("ingest record:\n got %s %v\nwant %s %v", got, ok, want, err)
			}
		}
	}
}

// checkDirect fails t unless read takes data whole and leaves in got what
// json.Unmarshal leaves in want.
func checkDirect(t *testing.T, what string, data []byte, read func(*wire.Reader) bool, got, want any) {
	t.Helper()
	if r := wire.NewReader(string(data)); !read(&r) || !r.End() {
		t.Fatalf("%s %q fell back to encoding/json", what, data)
	}
	if err := json.Unmarshal(data, want); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s of %q:\n got %#v\nwant %#v (%v)", what, data, got, want, err)
	}
}

// TestIngestRoutesMatchParent: bodies the ingest reader declines get the
// status and error text both routes gave when httpx.ReadJSON decoded them
// (recorded from that code): trailing bytes stay accepted, a duplicate
// key's last value wins, a struct key matching only up to case is taken.
func TestIngestRoutesMatchParent(t *testing.T) {
	c := NewCluster()
	if err := c.CreateDataset("D", Schema{}); err != nil {
		t.Fatal(err)
	}
	h := NewServer(c).Handler()
	tooLarge := `{"k":"` + strings.Repeat("a", httpx.MaxBodyBytes) + `"}`
	for _, tc := range []struct {
		name, body    string
		status, batch int
		msg, batchMsg string
	}{
		{"trailing bytes", `{"etype":"fire"} trailing`, 201, 400, "",
			`bdms: empty batch for dataset D`},
		{"duplicate key", `{"etype":"fire","etype":"flood","records":[{"a":1}],"records":[{"b":2}]}`, 201, 201, "", ""},
		{"key differing in case", `{"Records":[{"a":1}]}`, 201, 201, "", ""},
		{"null", `null`, 400, 400, "bdms: nil record at batch index 0 for dataset D",
			`bdms: empty batch for dataset D`},
		{"array", `[{"etype":"fire"}]`, 400, 400,
			"httpx: decode request body: json: cannot unmarshal array into Go value of type map[string]interface {}",
			"httpx: decode request body: json: cannot unmarshal array into Go value of type bdms.BatchIngestRequest"},
		{"out-of-range number", `{"records":[{"n":1e400}],"n":1e400}`, 400, 400,
			"httpx: decode request body: json: cannot unmarshal number 1e400 into Go value of type float64",
			"httpx: decode request body: json: cannot unmarshal number 1e400 into Go struct field BatchIngestRequest.records of type float64"},
		{"over MaxBodyBytes", tooLarge, 413, 413,
			"httpx: decode request body: httpx: body of /v1/datasets/D/records exceeds the 16777216-byte limit",
			"httpx: decode request body: httpx: body of /v1/datasets/D/records:batch exceeds the 16777216-byte limit"},
	} {
		if tc.body == tooLarge && raceBuild() {
			continue // one goroutine; 4 s of instrumented scanning per run, in a CI step that runs it 60 times
		}
		for _, route := range []struct {
			path   string
			status int
			msg    string
		}{{"/v1/datasets/D/records", tc.status, tc.msg}, {"/v1/datasets/D/records:batch", tc.batch, tc.batchMsg}} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.path, strings.NewReader(tc.body)))
			var env httpx.ErrorEnvelope
			_ = json.Unmarshal(rec.Body.Bytes(), &env)
			if rec.Code != route.status || env.Error.Message != route.msg {
				t.Errorf("%s, %s: %d %q, want %d %q", tc.name, route.path, rec.Code, env.Error.Message, route.status, route.msg)
			}
		}
	}
}

// randRecords is one to three records as a publisher sends them: any JSON
// value below the top, numbers from the whole float64 range.
func randRecords(rng *rand.Rand) []map[string]any {
	recs := make([]map[string]any, 1+rng.Intn(3))
	for i := range recs {
		recs[i] = randObject(rng, 0)
	}
	return recs
}

func randObject(rng *rand.Rand, depth int) map[string]any {
	m := map[string]any{}
	for n := rng.Intn(5); n > 0; n-- {
		m[randString(rng)] = randValue(rng, depth+1)
	}
	return m
}

func randValue(rng *rand.Rand, depth int) any {
	k := rng.Intn(7)
	if depth > 3 {
		k = rng.Intn(5)
	}
	switch k {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return randString(rng)
	case 3:
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return math.SmallestNonzeroFloat64
	case 4:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(600)-300))
	case 5:
		return randObject(rng, depth)
	}
	a := []any{}
	for n := rng.Intn(4); n > 0; n-- {
		a = append(a, randValue(rng, depth+1))
	}
	return a
}

// randString draws from runes that exercise every branch of the string
// codec: escapes, controls, HTML characters, U+2028/9, multi-byte and
// four-byte runes, and bytes of invalid UTF-8.
func randString(rng *rand.Rand) string {
	const alphabet = "ab\"\\/<>&\x00\x1f\t\n é日\u2028\u2029\U0001F600\ufffd"
	pieces := []rune(alphabet)
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		if rng.Intn(8) == 0 {
			b.WriteByte(byte(0x80 + rng.Intn(0x80)))
			continue
		}
		b.WriteRune(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// raceBuild reports a -race test binary.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
