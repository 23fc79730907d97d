package broker

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/wire"
)

// sameDecode fails t unless a decode gave the value and the error text
// encoding/json gives.
func sameDecode[T any](t *testing.T, what string, data []byte, got T, gotErr error, want T, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s of %q: error %v, encoding/json %v", what, data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s of %q:\n got %#v\nwant %#v", what, data, got, want)
	}
}

// envelopeFrame and callbackReply are the callback stream's frames as
// internal/bdms decodes them, for encoding/json to decode beside it.
type (
	envelopeFrame struct {
		bdms.NotificationPayload
		ID int64  `json:"id"`
		TP string `json:"tp,omitempty"`
	}
	callbackReply struct {
		bdms.CallbackResponse
		Re int64 `json:"re"`
	}
	// decodedFrame is what bdms.ParseEnvelopeFrame returns.
	decodedFrame struct {
		Entries []bdms.NotificationPayload
		ID      int64
		TP      string
	}
)

// asBdms renames this package's twin of a bdms type in an encoding/json
// error to the bdms type it stands for.
func asBdms(err error, name string) error {
	if err == nil {
		return nil
	}
	return errors.New(strings.ReplaceAll(err.Error(), "broker."+name, "bdms."+name))
}

// checkWireDecode holds the five frame decoders to encoding/json on data
// (a type error named for the decoded type, not the alias; see
// TestWireDecodeErrorsNameTheType): each UnmarshalJSON called directly, as
// the socket's readers call it, and ResultsResponse's through
// json.Unmarshal too, as the HTTP fallback reaches it; and the callback
// stream's envelope frame and answer, as the broker and the notifier read
// them. FuzzWireDecode runs it on any bytes; FuzzWire (internal/wire) holds
// the same readers beside the cluster leg's documents.
func checkWireDecode(t *testing.T, data []byte) {
	t.Helper()
	var rr, viaJSON ResultsResponse
	var rrWant resultsResponseFields
	err, wantErr := rr.UnmarshalJSON(data), wire.RenameTypeError[ResultsResponse, resultsResponseFields](json.Unmarshal(data, &rrWant))
	sameDecode(t, "ResultsResponse", data, rr, err, ResultsResponse(rrWant), wantErr)
	err = json.Unmarshal(data, &viaJSON)
	sameDecode(t, "json.Unmarshal into ResultsResponse", data, viaJSON, err, ResultsResponse(rrWant), wantErr)

	var n PushNotification
	var nWant pushFields
	err, wantErr = n.UnmarshalJSON(data), wire.RenameTypeError[PushNotification, pushFields](json.Unmarshal(data, &nWant))
	sameDecode(t, "PushNotification", data, n, err, PushNotification(nWant), wantErr)

	var g, gWant getRequest
	g.Get, g.ID, g.Ack, g.TP, err = ParseGetRequest(data)
	wantErr = json.Unmarshal(data, &gWant)
	sameDecode(t, "getRequest", data, g, err, gWant, wantErr)

	var f decodedFrame
	var fWant envelopeFrame
	f.Entries, f.ID, f.TP, err = bdms.ParseEnvelopeFrame(data)
	wantFrame := decodedFrame{}
	if wantErr = asBdms(json.Unmarshal(data, &fWant), "envelopeFrame"); wantErr == nil {
		head := fWant.NotificationPayload
		head.More = nil
		wantFrame = decodedFrame{append([]bdms.NotificationPayload{head}, fWant.More...), fWant.ID, fWant.TP}
	}
	sameDecode(t, "envelope frame", data, f, err, wantFrame, wantErr)

	var c, cWant callbackReply
	c.CallbackResponse, c.Re, err = bdms.ParseCallbackReply(data)
	wantErr = asBdms(json.Unmarshal(data, &cWant), "callbackReply")
	sameDecode(t, "callback reply", data, c, err, cWant, wantErr)
}

func parseGetRequest(frame []byte) error {
	_, _, _, _, err := ParseGetRequest(frame)
	return err
}

// TestWireDecodeErrorsNameTheType: a mismatched frame's error is the text
// encoding/json gave for the types before they had an UnmarshalJSON, the
// text serveGet's 400 reply and the client's "decode results reply" carry.
func TestWireDecodeErrorsNameTheType(t *testing.T) {
	for _, c := range []struct {
		decode func([]byte) error
		in     string
		want   string
	}{
		{new(ResultsResponse).UnmarshalJSON, `[]`, "json: cannot unmarshal array into Go value of type broker.ResultsResponse"},
		{new(ResultsResponse).UnmarshalJSON, `{"latest_ns":"x"}`, "json: cannot unmarshal string into Go struct field ResultsResponse.latest_ns of type int64"},
		{new(ResultsResponse).UnmarshalJSON, `{"latest_ns":1e400}`, "json: cannot unmarshal number 1e400 into Go struct field ResultsResponse.latest_ns of type int64"},
		{new(ResultsResponse).UnmarshalJSON, `{"results":{}}`, "json: cannot unmarshal object into Go struct field ResultsResponse.results of type []broker.ResultItem"},
		{new(ResultsResponse).UnmarshalJSON, `{"results":[{"id":5}]}`, "json: cannot unmarshal number into Go struct field ResultItem.results.id of type string"},
		{new(ResultsResponse).UnmarshalJSON, `{"results":[{"rows":[5]}]}`, "json: cannot unmarshal number into Go struct field ResultItem.results.rows of type map[string]interface {}"},
		{func(b []byte) error { return json.Unmarshal(b, new(ResultsResponse)) }, `{"stale":1}`, "json: cannot unmarshal number into Go struct field ResultsResponse.stale of type bool"},
		{new(PushNotification).UnmarshalJSON, `[]`, "json: cannot unmarshal array into Go value of type broker.PushNotification"},
		{new(PushNotification).UnmarshalJSON, `{"bs":true}`, "json: cannot unmarshal bool into Go struct field PushNotification.bs of type string"},
		{parseGetRequest, `[]`, "json: cannot unmarshal array into Go value of type broker.getRequest"},
		{parseGetRequest, `{"get":1}`, "json: cannot unmarshal number into Go struct field getRequest.get of type string"},
		{parseGetRequest, `{"ack":1.5}`, "json: cannot unmarshal number 1.5 into Go struct field getRequest.ack of type int64"},
	} {
		if err := c.decode([]byte(c.in)); err == nil || err.Error() != c.want {
			t.Errorf("decode %s: %v\nwant %s", c.in, err, c.want)
		}
	}
}

const wireTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// wireRetrieval is a reply's worth of results whose rows carry escapes,
// non-ASCII, nesting, extreme numbers, null and a row's own "re" key.
func wireRetrieval(t testing.TB) Retrieval {
	rows, err := json.Marshal([]map[string]any{
		{"pub": 7.0, "key": "a\"b\\c/<&>\u2028\u2029\t\x01", "re": 9.0, "none": nil,
			"nested": map[string]any{"list": []any{1.5, "é日本😀", true, false, nil, []any{}, map[string]any{}}},
			"big":    1.7976931348623157e308, "neg": -4.9e-324, "zero": -0.0},
		{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Retrieval{Items: []Item{
		{ID: "bs-1-r000001", TimestampNS: 1, Size: int64(len(rows)), Rows: rows, FromCache: true},
		{ID: "odd \"id\" \xff é", TimestampNS: math.MaxInt64, Size: 0, Rows: json.RawMessage("[]")},
	}, Latest: math.MaxInt64}
}

// FuzzWireDecode: for any bytes, the socket's frame decoders give the
// value and error encoding/json gives.
func FuzzWireDecode(f *testing.F) {
	ret := wireRetrieval(f)
	for _, seed := range [][]byte{
		appendResultsReply(nil, ret, 1),
		appendResultsReply(nil, Retrieval{Items: []Item{}}, math.MaxInt64),
		appendResults(nil, ret),
		appendResults(nil, Retrieval{Stale: true}),
		appendPushJSON(nil, "bs-000001", 12345, ""),
		appendPushJSON(nil, "bs \u2028 \xff", -1, wireTP),
		AppendGetRequest(nil, "broker-1-fs000001", 1, 0, ""),
		AppendGetRequest(nil, "fs <é>", math.MaxInt64, 42, wireTP),
		[]byte(`{"results":[{"id":"\"\\\/\b\f\n\r\t\u003c\u0026\u2028\ufffd","rows":[{"k\u00e9":"\ud83d\ude00"}]}]}`),
		[]byte(`{"results":[{"id":"raw é 日本 ` + "\xff\xfe\xed\xa0\x80" + `"}],"latest_ns":1}`),
		[]byte(`{"results":[{"rows":[{"lone":"\ud800","low":"\udc00","pair?":"\ud800\u0041","esc":"\ud800\\u0041","two":"\ud800\ud800\udc00"}]}]}`),
		[]byte(`{"results":[{"rows":[{"a":-0,"b":1E+2,"c":1e-400}]}],"latest_ns":-0}`),
		[]byte(`{"results":[{"rows":[{"a":1e400}]}]}`),
		[]byte(`{"latest_ns":1e400}`),
		[]byte(`{"latest_ns":01}`),
		[]byte(`{"latest_ns":1E+2}`),
		[]byte(`{"Results":[],"LATEST_NS":5}`),
		[]byte(`{"type":"results","TYPE":"x","Bs":"b"}`),
		[]byte(`{"latest_ns":1,"latest_ns":2}`),
		[]byte(`{"results":[{"id":"a","size":1}],"results":[{"id":"b"}]}`),
		[]byte(`{"get":"a","get":"b","id":1}`),
		[]byte(`{"results":[{"rows":[{"k":1,"k":2}]}]}`),
		[]byte(`{"results":[{"rows":null},{"rows":[]},{"rows":[null]}]}`),
		[]byte(`{"results":null,"stale":true}`),
		[]byte(`{"results":[null]}`),
		[]byte(`{"results":[{"id":"x","rows":[{"re":3}],"from_cache":true}],"latest_ns":7,"re":3}` + "\n"),
		[]byte(" \t\r\n{ \"latest_ns\" : 4 , \"results\" : [ ] } \n"),
		[]byte(`{"latest_ns":4} x`),
		[]byte(`{"latest_ns":4}{}`),
		[]byte(`{"re":1,"status":502,"error":{"code":"internal","message":"m","retryable":true}}`),
		[]byte(`{"id":"1","ack":null,"tp":7}`),
		[]byte(`null`),
		[]byte(`[]`),
		[]byte(``),
		// The callback stream's frames: envelopes as the notifier writes
		// them, answers as the broker does, then their edge cases.
		frameOf(f, []bdms.NotificationPayload{{SubscriptionID: "bsub-000001", LatestNS: 42}}, 1, ""),
		frameOf(f, []bdms.NotificationPayload{
			{SubscriptionID: "bsub-000001", LatestNS: 2, Results: []bdms.ResultObject{{ID: "bsub-000001-r000002", SubscriptionID: "bsub-000001",
				Timestamp: 2, PrevNS: 1, Rows: json.RawMessage(`[{"pub":7,"re":9,"id":"x"}]`), Size: 24}}},
			{SubscriptionID: "q\"b\\s<x>& \u2028", LatestNS: math.MaxInt64},
		}, math.MaxInt64, wireTP),
		bdms.AppendCallbackReply(nil, bdms.CallbackResponse{}, 1),
		bdms.AppendCallbackReply(nil, bdms.CallbackResponse{Failed: []bdms.FailedEntry{
			{SubscriptionID: "ghost", Code: "not_found"}, {SubscriptionID: "bsub \xff <é>", Code: "internal"}}}, math.MaxInt64),
		[]byte(`{"subscription_id":"a","latest_ns":1,"more":[{"subscription_id":"b","id":3,"tp":"x"}],"id":2,"tp":"y"}`),
		[]byte(`{"id":1,"id":2,"subscription_id":"a","ID":3,"Tp":"z"}`),
		[]byte(`{"subscription_id":"a","id":1.5}`),
		[]byte(`{"subscription_id":"a","id":1,"tp":null,"more":null,"results":null}`),
		[]byte(`{"failed":[],"re":3}`),
		[]byte(`{"failed":null,"re":-1,"RE":4}`),
		[]byte(`{"failed":[{"subscription_id":"a","code":7}],"re":2}`),
		[]byte(`{"failed":[{"Subscription_ID":"a","CODE":"x","extra":[1]}],"re":"2"}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(checkWireDecode)
}

// TestWireWritersTakeDirectPath: every frame the writers produce — over
// random IDs, rows, markers and traceparents, the rows written by
// wire.AppendValue as evaluate writes them — is read by the direct path,
// never handed to encoding/json, and decodes as encoding/json decodes it;
// AppendValue's rows and the push frame are json.Marshal's bytes.
func TestWireWritersTakeDirectPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ret := Retrieval{Latest: time.Duration(randInt(rng)), Stale: rng.Intn(4) == 0}
		for j := rng.Intn(4); j > 0; j-- {
			rows := []map[string]any{}
			for k := rng.Intn(3); k > 0; k-- {
				rows = append(rows, randObject(rng, 0))
			}
			raw, ok := wire.AppendValue(nil, rows)
			if want, err := json.Marshal(rows); !ok || err != nil || !bytes.Equal(raw, want) {
				t.Fatalf("AppendValue(%#v) = %s, %v; json.Marshal %s, %v", rows, raw, ok, want, err)
			}
			ret.Items = append(ret.Items, Item{ID: randString(rng), TimestampNS: randInt(rng),
				Size: randInt(rng), Rows: raw, FromCache: rng.Intn(2) == 0})
		}
		bs, latest, tp := "bs"+randString(rng), randInt(rng), randTP(rng) // a backend subscription is never ""
		push := appendPushJSON(nil, bs, latest, tp)
		if want, _ := json.Marshal(PushNotification{Type: "results", BackendSub: bs, LatestNS: latest, Traceparent: tp}); !bytes.Equal(push, want) {
			t.Fatalf("appendPushJSON(%q, %d, %q) = %s, want %s", bs, latest, tp, push, want)
		}
		frames := []struct {
			what string
			read func(*wire.Reader) bool
			data []byte
		}{
			{"results body", func(r *wire.Reader) bool { return readResultsResponse(r, new(ResultsResponse)) }, appendResults(nil, ret)},
			{"results reply", func(r *wire.Reader) bool { return readResultsResponse(r, new(ResultsResponse)) }, appendResultsReply(nil, ret, randInt(rng))},
			{"push frame", func(r *wire.Reader) bool { return readPush(r, new(PushNotification)) }, push},
			{"request frame", func(r *wire.Reader) bool { return readGetRequest(r, new(getRequest)) }, AppendGetRequest(nil, randString(rng), randInt(rng), randInt(rng), randTP(rng))},
		}
		for _, fr := range frames {
			if r := wire.NewReader(string(fr.data)); !fr.read(&r) || !r.End() {
				t.Fatalf("%s %q fell back to encoding/json", fr.what, fr.data)
			}
			checkWireDecode(t, fr.data)
		}
	}
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxInt64 - rng.Int63n(2)
	case 2:
		return -rng.Int63()
	}
	return rng.Int63n(1 << uint(rng.Intn(62)+1))
}

// randString draws from runes that exercise every branch of the string
// encoder: escapes, controls, HTML characters, U+2028/9, multi-byte and
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

func randTP(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return ""
	}
	return randString(rng)
}

// randObject is a row as the cluster's encoder sees one: any JSON value
// below the top, numbers from the whole float64 range.
func randObject(rng *rand.Rand, depth int) map[string]any {
	m := map[string]any{}
	for n := rng.Intn(5); n > 0; n-- {
		m[randString(rng)] = randValue(rng, depth+1)
	}
	return m
}

func randValue(rng *rand.Rand, depth int) any {
	k := rng.Intn(8)
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
