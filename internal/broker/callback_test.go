package broker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
)

// pushedEnvelope is a webhook envelope over e's subscriptions, each entry
// carrying its subscription's results as a PUSH does, with their rows and
// stamped as the cluster stamps them.
func pushedEnvelope(t testing.TB, e *envelopeEnv) []byte {
	t.Helper()
	var p bdms.NotificationPayload
	for i, bs := range e.subs {
		objs, err := e.te.cluster.Results(bs.id, 0, e.latest[i], true)
		if err != nil || len(objs) == 0 {
			t.Fatalf("results of %s: %v, %v", bs.id, objs, err)
		}
		entry := bdms.NotificationPayload{SubscriptionID: bs.id, LatestNS: int64(e.latest[i]), Results: stamp(0, objs)}
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

// TestEnvelopeOfFirstResultsMakesNoClusterCalls: over real sockets — the
// cluster's webhook notifier and REST server, the broker's callback route —
// k fresh subscriptions' first results reach the broker in one envelope.
// Each names no predecessor, so every one is cached and the cluster's
// results routes are never called.
func TestEnvelopeOfFirstResultsMakesNoClusterCalls(t *testing.T) {
	const k = 8
	notifier := bdms.NewWebhookNotifier(1, 64, nil)
	defer notifier.Close()
	cluster := bdms.NewCluster(bdms.WithNotifier(notifier))
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.DefineChannel(bdms.ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	var resultCalls atomic.Int32
	clusterAPI := bdms.NewServer(cluster).Handler()
	clusterSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "results") {
			resultCalls.Add(1)
		}
		clusterAPI.ServeHTTP(w, r)
	}))
	defer clusterSrv.Close()

	// The first POST — the gate subscription's result — is held open, so
	// the k results gather behind it as the next envelope.
	var callback http.Handler
	var posts atomic.Int32
	arrived, gate := make(chan struct{}), make(chan struct{})
	brokerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			close(arrived)
			<-gate
		}
		callback.ServeHTTP(w, r)
	}))
	defer brokerSrv.Close()
	b, err := New(Config{
		ID:          "broker-1",
		Backend:     bdms.NewClient(clusterSrv.URL, clusterSrv.Client()),
		CallbackURL: brokerSrv.URL + "/v1/callbacks/results",
		Policy:      core.LSC{},
		CacheBudget: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	callback = NewServer(b).Handler()

	etypes := []string{"gate"}
	for i := 0; i < k; i++ {
		etypes = append(etypes, fmt.Sprintf("kind-%d", i))
	}
	records := make([]map[string]any, 0, k)
	for _, etype := range etypes {
		if _, err := b.Subscribe("alice", "Alerts", []any{etype}); err != nil {
			t.Fatal(err)
		}
		if etype != "gate" {
			records = append(records, map[string]any{"etype": etype})
		}
	}
	if _, err := cluster.Ingest("EmergencyReports", map[string]any{"etype": "gate"}); err != nil {
		t.Fatal(err)
	}
	<-arrived
	if _, err := cluster.IngestBatch("EmergencyReports", records); err != nil {
		t.Fatal(err)
	}
	close(gate)
	stats := notifier.Stats()
	for deadline := time.Now().Add(5 * time.Second); stats.Delivered.Load() < k+1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	if posts, frames, entries := stats.Posts.Load(), stats.Streamed.Load(), stats.Entries.Load(); posts != 1 || frames != 1 || entries != k+1 {
		t.Errorf("notifier sent %d POSTs and %d stream frames with %d entries, want 1 and 1 with %d: the gate's POST, then one envelope of %d on the stream it offered",
			posts, frames, entries, k+1, k)
	}
	for _, etype := range etypes {
		bs := b.backendSubs[subKey("Alerts", []any{etype})]
		if objs, _ := b.manager.Peek(bs.id, 0, time.Duration(1<<62), true); len(objs) != 1 {
			t.Errorf("%s caches %d objects, want its first result", etype, len(objs))
		}
	}
	if got := resultCalls.Load(); got != 0 {
		t.Errorf("cluster results routes called %d times, want 0", got)
	}
	if got := b.Stats().FetchBytes.Value(); got != 0 {
		t.Errorf("fetch bytes = %v, want 0", got)
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
