package broker

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gobad/internal/bdms"
)

// pushedEnvelope is a webhook envelope over e's subscriptions, each entry
// carrying its subscription's results as a PUSH does, with their rows.
func pushedEnvelope(t testing.TB, e *envelopeEnv) []byte {
	t.Helper()
	var p bdms.NotificationPayload
	for i, bs := range e.subs {
		objs, err := e.te.cluster.Results(bs.id, 0, e.latest[i], true)
		if err != nil || len(objs) == 0 {
			t.Fatalf("results of %s: %v, %v", bs.id, objs, err)
		}
		entry := bdms.NotificationPayload{SubscriptionID: bs.id, LatestNS: int64(e.latest[i]), Results: objs}
		if i == 0 {
			p = entry
		} else {
			p.More = append(p.More, entry)
		}
	}
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postCallback runs body through handleCallback and fails t unless it is
// answered 200 with no failed entry.
func postCallback(t testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/callbacks/results", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Body.String() != "{}\n" {
		t.Fatalf("callback answered %d %s", rec.Code, rec.Body)
	}
}

// TestCallbackRowsOwnTheirMemory: a pushed object the callback caches
// keeps rows of its own — exactly their length, apart from the request
// body, so overwriting the body leaves the object as it was.
func TestCallbackRowsOwnTheirMemory(t *testing.T) {
	e := newEnvelopeEnv(t, "fire", "flood")
	body := pushedEnvelope(t, e)
	var sent bdms.NotificationPayload
	if err := json.Unmarshal(body, &sent); err != nil {
		t.Fatal(err)
	}
	postCallback(t, NewServer(e.b).Handler(), body)
	for i := range body {
		body[i] = 'x'
	}
	for i, bs := range e.subs {
		want := sent.Results
		if i > 0 {
			want = sent.More[i-1].Results
		}
		objs, _ := e.b.manager.Peek(bs.id, 0, e.latest[i], true)
		if len(objs) != len(want) {
			t.Fatalf("%s caches %d objects, want %d", bs.id, len(objs), len(want))
		}
		for k, o := range objs {
			if !bytes.Equal(o.Payload, want[k].Rows) || o.ID != want[k].ID {
				t.Errorf("%s object %d = %s %s, want %s %s", bs.id, k, o.ID, o.Payload, want[k].ID, want[k].Rows)
			}
			if cap(o.Payload) != len(o.Payload) {
				t.Errorf("%s object %d rows: cap %d, len %d", bs.id, k, cap(o.Payload), len(o.Payload))
			}
		}
	}
}

// BenchmarkHandleCallback is handleCallback on a 4-entry envelope with
// pushed rows, through the route's handler: the envelope's decode and the
// entries' arrival, the results already cached after the first round.
func BenchmarkHandleCallback(b *testing.B) {
	e := newEnvelopeEnv(b, "fire", "flood", "quake", "storm")
	body := pushedEnvelope(b, e)
	h := NewServer(e.b).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postCallback(b, h, body)
	}
}
