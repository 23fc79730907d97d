package broker

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/faults"
	"gobad/internal/httpx"
	"gobad/internal/obs"
	"gobad/internal/wsock"
)

// frameOf writes an envelope frame as the notifier does, through
// encoding/json.
func frameOf(t testing.TB, entries []bdms.NotificationPayload, id int64, tp string) []byte {
	t.Helper()
	head := entries[0]
	head.More = entries[1:]
	frame, err := json.Marshal(envelopeFrame{head, id, tp})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// requests is the route's http_requests_total for one method and code.
func requests(o *httpx.Observer, route, method, code string) float64 {
	for _, f := range o.Registry.Gather() {
		if f.Name != "http_requests_total" {
			continue
		}
		for _, p := range f.Points {
			labels := map[string]string{}
			for _, l := range p.Labels {
				labels[l.Name] = l.Value
			}
			if labels["route"] == route && labels["method"] == method && labels["code"] == code {
				return p.Value
			}
		}
	}
	return 0
}

// TestCallbackStreamAnswersEnvelopes: the callback route's POST answer
// offers the stream, and its GET upgrades to one. Each envelope frame is
// handled as the POST's body is and answered with the POST's answer plus
// "re", under its own span, series and access line; a frame that is no
// envelope closes the stream.
func TestCallbackStreamAnswersEnvelopes(t *testing.T) {
	e := newEnvelopeEnv(t, "fire", "flood")
	o := httpx.NewObserver("badbroker", nil)
	srv := httptest.NewServer(NewServer(e.b, WithObserver(o)).Handler())
	defer srv.Close()
	url := srv.URL + callbackRoute

	body, err := json.Marshal(bdms.NotificationPayload{SubscriptionID: e.subs[0].id, LatestNS: int64(e.latest[0])})
	if err != nil {
		t.Fatal(err)
	}
	var resp bdms.CallbackResponse
	_, hdr, err := httpx.DoJSONHeader(context.Background(), srv.Client(), http.MethodPost, url, nil, json.RawMessage(body), &resp)
	if err != nil || hdr.Get("Upgrade") != "websocket" || !strings.EqualFold(hdr.Get("Connection"), "upgrade") {
		t.Fatalf("POST answered %v with Upgrade %q, Connection %q; want the stream offered", err, hdr.Get("Upgrade"), hdr.Get("Connection"))
	}

	conn, err := wsock.Dial(url, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	origin := obs.NewSpan()
	entries := []bdms.NotificationPayload{{SubscriptionID: e.subs[1].id, LatestNS: int64(e.latest[1])}, {SubscriptionID: "ghost", LatestNS: 1}}
	if err := conn.WriteMessage(wsock.OpText, frameOf(t, entries, 7, origin.Child().Traceparent())); err != nil {
		t.Fatal(err)
	}
	_, msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"failed":[{"subscription_id":"ghost","code":"not_found"}],"re":7}`; string(msg) != want {
		t.Errorf("answer = %s, want %s", msg, want)
	}
	e.checkMarkers(t, func(int) bool { return true })
	if e.pushes.Load() != 2 {
		t.Errorf("alice was pushed %d notifications, want 2: fire by POST, flood by frame", e.pushes.Load())
	}
	// The series and the span are recorded once the answer is written.
	waitUntil(t, `http_requests_total{method="WS",code="200"} 1`, func() bool { return requests(o, callbackRoute, "WS", "200") == 1 })
	tr, err := o.Traces.Lookup(origin.TraceIDString())
	if err != nil {
		t.Fatalf("no trace %s: %v", origin.TraceIDString(), err)
	}
	var route, notifies int
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "http " + callbackRoute:
			route++
			if sp.Attrs["transport"] != "ws" || sp.Attrs["method"] != "WS" || sp.Attrs["status"] != "200" {
				t.Errorf("callback span attrs = %v, want transport=ws, method=WS, status=200", sp.Attrs)
			}
		case "broker.notify":
			notifies++
		}
	}
	if route != 1 || notifies != 2 {
		t.Errorf("trace holds %d callback spans and %d broker.notify, want 1 and 2", route, notifies)
	}

	if err := conn.WriteMessage(wsock.OpText, []byte(`{"subscription_id":5,"id":8}`)); err != nil {
		t.Fatal(err)
	}
	if _, msg, err := conn.ReadMessage(); err == nil {
		t.Errorf("a frame that is no envelope was answered %s; want the stream closed", msg)
	}
	waitUntil(t, `http_requests_total{method="WS",code="400"} 1`, func() bool { return requests(o, callbackRoute, "WS", "400") == 1 })
}

// TestCallbackStreamKilledMidEnvelope: the real notifier against a broker
// whose listener is killed while an envelope's frame is being handled —
// its answer never leaves — and then serves again on the same address.
// The envelope fails, is redelivered on a redialled stream and taken as a
// duplicate: the subscriber is told of every result once, and can
// retrieve each, in order.
func TestCallbackStreamKilledMidEnvelope(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	backoff := make(chan struct{})
	notifier := bdms.NewWebhookNotifier(1, 64, &http.Client{Timeout: 5 * time.Second},
		bdms.WithNotifierSleep(func(ctx context.Context, _ time.Duration) error {
			select {
			case <-backoff:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}))
	defer notifier.Close()
	cluster := bdms.NewCluster(bdms.WithNotifier(notifier))
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.DefineChannel(bdms.ChannelDef{
		Name: "Alerts", Params: []string{"etype"},
		Body: "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{ID: "broker-1", Backend: cluster, CallbackURL: "http://" + addr + callbackRoute,
		Policy: core.LSC{}, CacheBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var pushed []int64
	var hold atomic.Bool
	arrived, killed := make(chan struct{}), make(chan struct{})
	b.SetPushFunc(func(_ string, n PushNotification) bool {
		pushed = append(pushed, n.LatestNS)
		if hold.CompareAndSwap(true, false) {
			close(arrived)
			<-killed
		}
		return true
	})
	serve := func(ln net.Listener) *faults.KillableListener {
		kl := faults.NewKillableListener(ln)
		srv := &http.Server{Handler: NewServer(b).Handler()}
		go func() { _ = srv.Serve(kl) }()
		t.Cleanup(func() { _ = srv.Close() })
		return kl
	}
	kl := serve(ln)
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	stats := notifier.Stats()
	publish := func(delivered uint64) {
		t.Helper()
		if _, err := cluster.Ingest("EmergencyReports", map[string]any{"etype": "fire"}); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "the delivery", func() bool { return stats.Delivered.Load() == delivered })
	}
	publish(1) // by POST, which offers the stream
	publish(2) // on the stream

	hold.Store(true)
	if _, err := cluster.Ingest("EmergencyReports", map[string]any{"etype": "fire"}); err != nil {
		t.Fatal(err)
	}
	<-arrived
	kl.Kill()
	close(killed)
	waitUntil(t, "the killed envelope to fail", func() bool { return stats.Failed.Load() == 1 })
	kl = serve(relisten(t, addr))
	defer kl.Kill()
	backoff <- struct{}{}
	waitUntil(t, "the redelivery", func() bool { return stats.Delivered.Load() == 3 })
	publish(4)

	if stats.Posts.Load() != 1 || stats.Streamed.Load() != 4 || stats.Redelivered.Load() != 1 || stats.Lost.Load() != 0 {
		t.Errorf("posts %d streamed %d redelivered %d lost %d, want 1/4/1/0: the killed frame sent twice",
			stats.Posts.Load(), stats.Streamed.Load(), stats.Redelivered.Load(), stats.Lost.Load())
	}
	if len(pushed) != 4 {
		t.Fatalf("alice was told of %v, want each of the 4 results once", pushed)
	}
	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 4 || ret.Latest != time.Duration(pushed[3]) {
		t.Errorf("alice retrieves %d results up to %v, want 4 up to %v", len(ret.Items), ret.Latest, time.Duration(pushed[3]))
	}
	for i, it := range ret.Items {
		if it.TimestampNS != pushed[i] {
			t.Errorf("result %d at %d, want %d: in order, each once", i, it.TimestampNS, pushed[i])
		}
	}
}

// relisten listens on addr again once a kill has freed it.
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func waitUntil(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
