package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
	"gobad/internal/httpx"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
	"gobad/internal/wsock"
)

// countGets counts the results GETs that pass through it.
type countGets struct{ n *atomic.Int64 }

func (g countGets) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/results") {
		g.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// testBackend fronts a test broker's cluster: while fail is set every
// fetch fails, and once hold is set the next fetch signals entered and
// waits for release. Under NC every retrieval fetches, so a held fetch is a
// retrieval in flight at the broker for as long as the test needs.
type testBackend struct {
	broker.Backend
	fail, hold       atomic.Bool
	entered, release chan struct{}
}

func (b *testBackend) ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error) {
	if b.fail.Load() {
		return nil, errors.New("cluster unreachable")
	}
	if b.hold.CompareAndSwap(true, false) {
		close(b.entered)
		<-b.release
	}
	return b.Backend.ResultsContext(ctx, subID, from, to, inclusiveTo)
}

// fetchEveryRetrieval fronts a broker's cluster with be under NC.
func fetchEveryRetrieval(be *testBackend) func(*broker.Config) {
	return func(cfg *broker.Config) {
		be.Backend, cfg.Backend, cfg.Policy = cfg.Backend, be, core.NC{}
	}
}

// awaitNotification waits for a push notification past after: the broker
// then holds a result the next retrieval must fetch.
func awaitNotification(t *testing.T, c *Client, after int64) {
	t.Helper()
	for deadline := time.After(10 * time.Second); ; {
		select {
		case n := <-c.Notifications():
			if n.LatestNS > after {
				return
			}
		case <-deadline:
			t.Fatalf("no notification past %d", after)
		}
	}
}

// retrieveUntil calls GetResults until the delivered stream holds want
// items, whether or not a notification announces them.
func retrieveUntil(t *testing.T, c *Client, fs string, got *[]broker.ResultItem, want int) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); len(*got) < want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d results", len(*got), want)
		}
		items, _ := c.GetResults(fs)
		*got = append(*got, items...)
	}
}

// TestSocketRetrievalFallsBackOnce: a retrieval whose notification socket
// goes away before the reply — its broker killed, a drain's migrate frame,
// the session replaced by a newer attach, a Logout racing it — is made
// exactly once more, over HTTP with the same ack, and the delivered stream
// stays whole.
func TestSocketRetrievalFallsBackOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		interrupt func(t *testing.T, env *chaosEnv)
	}{
		{"broker killed", func(t *testing.T, env *chaosEnv) {
			if err := env.svc.Deregister("broker-1"); err != nil {
				t.Fatal(err)
			}
			env.b1.kill()
		}},
		{"drain's migrate frame", func(t *testing.T, env *chaosEnv) {
			if err := env.svc.Deregister("broker-1"); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if n := env.b1.Drain(ctx, env.b2.srv.URL); n != 1 {
				t.Fatalf("Drain migrated %d sessions, want 1", n)
			}
		}},
		{"session replaced", func(t *testing.T, env *chaosEnv) {
			newer, err := New(Config{Subscriber: "bob", BrokerURL: env.b1.srv.URL})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(newer.Close)
			if err := newer.Listen(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Logout", func(_ *testing.T, env *chaosEnv) { env.client.Logout() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := &testBackend{entered: make(chan struct{}), release: make(chan struct{})}
			env := newChaosEnvFor(t, "bob", fetchEveryRetrieval(be))
			fs, err := env.client.Subscribe("Alerts", []any{"fire"})
			if err != nil {
				t.Fatal(err)
			}
			var got []broker.ResultItem
			env.publish(t, 2)
			collect(t, env, fs, &got, 2)
			env.publish(t, 1)
			awaitNotification(t, env.client, got[1].TimestampNS)
			retrieved := make(chan []broker.ResultItem, 1)
			gets := env.gets.Load()
			be.hold.Store(true)
			go func() {
				items, err := env.client.GetResults(fs)
				if err != nil {
					t.Logf("interrupted GetResults: %v", err)
				}
				retrieved <- items
			}()
			select {
			case <-be.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the retrieval never reached the broker's cluster fetch")
			}
			if env.gets.Load() != gets {
				t.Fatal("the retrieval went over HTTP, not the socket")
			}
			tc.interrupt(t, env)
			close(be.release)
			got = append(got, <-retrieved...)
			if n := env.gets.Load() - gets; n != 1 {
				t.Errorf("the interrupted retrieval made %d HTTP requests, want exactly 1", n)
			}
			env.publish(t, 1)
			retrieveUntil(t, env.client, fs, &got, 4)
			verifyStream(t, got, 4)
		})
	}
}

// TestSocketWriteFailureFallsBack: a retrieval whose request the socket
// cannot take — closed after GetResults took it, before the pump saw it
// die — is made once more, over HTTP.
func TestSocketWriteFailureFallsBack(t *testing.T) {
	p := newCachedPair(t, json.RawMessage(`[{"etype":"fire"}]`))
	dead, err := wsock.Dial(p.alice.BrokerURL()+"/v1/ws?subscriber=ghost", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = dead.Close()
	p.alice.mu.Lock()
	live := p.alice.ws
	p.alice.ws = dead
	p.alice.mu.Unlock()
	items, err := p.alice.GetResults(p.fsA)
	p.alice.mu.Lock()
	p.alice.ws = live
	p.alice.mu.Unlock()
	if err != nil || len(items) != 1 {
		t.Fatalf("GetResults = %d items, %v; want the cached object", len(items), err)
	}
	if n := p.gets.Load(); n != 1 {
		t.Errorf("the retrieval made %d HTTP requests, want exactly 1", n)
	}
}

// TestSocketErrorsMatchHTTP: a retrieval over the notification socket
// fails as the same retrieval over HTTP does — a cluster outage as a
// retryable 502 *httpx.StatusError, an unknown subscription as a 404, a
// body over httpx.MaxBodyBytes as an *httpx.TooLargeError — and the
// listening client never falls back to HTTP for any of them.
func TestSocketErrorsMatchHTTP(t *testing.T) {
	// compare subscribes the chaos rig's listening client and a second,
	// never listening one to the same channel on a broker-1 configured by
	// opts; each returned call retrieves through both and checks both
	// errors.
	compare := func(opts ...func(*broker.Config)) (*chaosEnv, func(string, func(error) bool), func()) {
		env := newChaosEnvFor(t, "bob", opts...)
		var overHTTP atomic.Int64
		hal, err := New(Config{Subscriber: "hal", BrokerURL: env.b1.srv.URL,
			HTTPClient: &http.Client{Transport: countGets{&overHTTP}}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(hal.Close)
		fss := map[*Client]string{}
		for _, c := range []*Client{env.client, hal} {
			if fss[c], err = c.Subscribe("Alerts", []any{"fire"}); err != nil {
				t.Fatal(err)
			}
		}
		gets := env.gets.Load()
		same := func(what string, check func(error) bool) {
			t.Helper()
			_, errHTTP := hal.GetResults(fss[hal])
			_, errSock := env.client.GetResults(fss[env.client])
			if !check(errHTTP) || !check(errSock) {
				t.Errorf("%s: over HTTP %v, over the socket %v", what, errHTTP, errSock)
			}
			if n := env.gets.Load() - gets; n != 0 {
				t.Errorf("%s: the listening client made %d HTTP retrievals, want none", what, n)
			}
			if overHTTP.Load() == 0 {
				t.Errorf("%s: the other client made no HTTP retrieval", what)
			}
		}
		unsubscribe := func() {
			for c, fs := range fss {
				c.mu.Lock()
				cur := c.subs[fs].fs
				c.mu.Unlock()
				if err := env.b1.Unsubscribe(c.Subscriber(), cur); err != nil {
					t.Fatal(err)
				}
			}
		}
		return env, same, unsubscribe
	}
	status := func(code int, retryable bool) func(error) bool {
		return func(err error) bool {
			var se *httpx.StatusError
			return errors.As(err, &se) && se.Status == code && se.Code == httpx.CodeForStatus(code) && se.Retryable == retryable
		}
	}

	be := &testBackend{}
	env, same, unsubscribe := compare(fetchEveryRetrieval(be))
	env.publish(t, 1)
	awaitNotification(t, env.client, 0)
	be.fail.Store(true)
	same("cluster outage", status(http.StatusBadGateway, true))
	unsubscribe()
	same("unknown subscription", status(http.StatusNotFound, false))

	if raceBuild() {
		t.Skip("the race detector multiplies 18 MiB of results; too-large case skipped")
	}
	// Five cached results of 3.5 MiB: each is pushed to the broker alone,
	// under the notifier's 4 MiB envelope budget; together they are over
	// the read bound.
	env, same, _ = compare(func(cfg *broker.Config) { cfg.CacheBudget = 64 << 20 })
	for i := 0; i < 5; i++ {
		if _, err := env.cluster.Ingest("EmergencyReports", map[string]any{
			"etype": "fire", "message": strings.Repeat("x", 7<<19),
		}); err != nil {
			t.Fatal(err)
		}
		awaitNotification(t, env.client, 0)
	}
	same("reply over the read bound", func(err error) bool {
		var tl *httpx.TooLargeError
		return errors.As(err, &tl) && tl.Limit == httpx.MaxBodyBytes && strings.Contains(tl.URL, "/results?")
	})
}

// cachedPair is one result object, its rows the given bytes, cached at a
// broker for two subscribers of one backend subscription: alice, listening,
// who retrieves over her notification socket, and hal, who never listens
// and retrieves over HTTP. Until hal retrieves, the object stays cached for
// alice's repeated retrievals. gets counts alice's results GETs; b is the
// broker, bs the backend subscription and traces the broker's recorder.
type cachedPair struct {
	alice, hal *Client
	fsA, fsH   string
	gets       atomic.Int64
	b          *broker.Broker
	bs         string
	traces     *span.Recorder
}

func newCachedPair(t *testing.T, rows json.RawMessage) *cachedPair {
	t.Helper()
	cluster := bdms.NewCluster()
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.DefineChannel(bdms.ChannelDef{Name: "Alerts", Params: []string{"etype"},
		Body: "select * from EmergencyReports r where r.etype = $etype"}); err != nil {
		t.Fatal(err)
	}
	b, err := broker.New(broker.Config{ID: "broker-1", Backend: cluster, Policy: core.LSC{}, CacheBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	bsrv := broker.NewServer(b)
	srv := httptest.NewServer(bsrv.Handler())
	t.Cleanup(srv.Close)
	p := &cachedPair{b: b, traces: bsrv.Observer().Traces}
	if p.alice, err = New(Config{Subscriber: "alice", BrokerURL: srv.URL,
		HTTPClient: &http.Client{Transport: countGets{&p.gets}}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.alice.Close)
	if p.hal, err = New(Config{Subscriber: "hal", BrokerURL: srv.URL}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.hal.Close)
	if p.fsA, err = p.alice.Subscribe("Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	if p.fsH, err = p.hal.Subscribe("Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	if err := p.alice.Listen(); err != nil {
		t.Fatal(err)
	}
	bs, err := b.BackendSubID("alice", p.fsA)
	if err != nil {
		t.Fatal(err)
	}
	p.bs = bs
	if err := b.HandleNotificationContext(context.Background(), bs, time.Second, []bdms.ResultObject{{
		ID: bs + "-r000001", SubscriptionID: bs, Timestamp: time.Second, Rows: rows, Size: int64(len(rows)),
	}}); err != nil {
		t.Fatal(err)
	}
	awaitNotification(t, p.alice, 0) // her socket is pumping: she retrieves over it
	return p
}

// TestSocketRetrievalTimesOut: a retrieval whose reply never comes fails
// after the HTTP client's Timeout with the same error each time, and a
// retrieval answered in time hands its timer back without a stale tick —
// the next unanswered one still waits the whole Timeout.
func TestSocketRetrievalTimesOut(t *testing.T) {
	const timeout = 150 * time.Millisecond
	answer := make(chan bool, 3) // whether to answer each request, in order
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := wsock.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			_, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			_, id, _, _, err := broker.ParseGetRequest(msg)
			if err == nil && <-answer {
				_ = conn.WriteMessage(wsock.OpText, []byte(fmt.Sprintf("{\"results\":[],\"latest_ns\":0,\"re\":%d}\n", id)))
			}
		}
	}))
	t.Cleanup(srv.Close)
	c, err := New(Config{Subscriber: "alice", BrokerURL: srv.URL, HTTPClient: &http.Client{Timeout: timeout}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		up := c.ws != nil
		c.mu.Unlock()
		if up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the socket never came up")
		}
	}
	want := fmt.Sprintf("client: no reply to the retrieval of fs-1 within %v", timeout)
	for i, answered := range []bool{false, true, false} {
		answer <- answered
		start := time.Now()
		_, err := c.GetResults("fs-1")
		took := time.Since(start)
		switch {
		case answered && err != nil:
			t.Fatalf("retrieval %d, answered: %v", i, err)
		case !answered && (err == nil || err.Error() != want):
			t.Fatalf("retrieval %d, unanswered: %v; want %q", i, err, want)
		case !answered && took < timeout:
			t.Fatalf("retrieval %d failed after %v, before the %v timeout", i, took, timeout)
		}
	}
}

// TestSocketAndHTTPDecodeAlike: the same cached object retrieved over the
// notification socket and over HTTP decodes to the same items, its rows
// what encoding/json makes of the cluster's row bytes — escapes, non-ASCII,
// nesting, extreme numbers and null included.
func TestSocketAndHTTPDecodeAlike(t *testing.T) {
	rows := json.RawMessage(`[{"etype":"fire","msg":"\"q\" \\ \u003cb\u003e \u0026 \u2028 \ud83d\ude00 é日本","n":null,` +
		`"big":1.7976931348623157e308,"neg":-9007199254740993,"tiny":-5e-324,"zero":-0,"t":true,` +
		`"nested":{"list":[1,[2,{"k":"v"}],{},[]],"obj":{"deep":{"x":-1.5e10}}}},{}]`)
	var want []map[string]any
	if err := json.Unmarshal(rows, &want); err != nil {
		t.Fatal(err)
	}
	p := newCachedPair(t, rows)
	overSocket, err := p.alice.GetResults(p.fsA)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.gets.Load(); n != 0 {
		t.Fatalf("the listening subscriber made %d HTTP retrievals, want none", n)
	}
	overHTTP, err := p.hal.GetResults(p.fsH)
	if err != nil {
		t.Fatal(err)
	}
	if len(overSocket) != 1 || !reflect.DeepEqual(overSocket[0].Rows, want) {
		t.Fatalf("over the socket: %#v\nwant rows %#v", overSocket, want)
	}
	if !reflect.DeepEqual(overSocket, overHTTP) {
		t.Fatalf("over the socket %#v\nover HTTP %#v", overSocket, overHTTP)
	}
}

// TestSocketRetrievalAllocs bounds one GetResults over the notification
// socket that the cache answers with a one-row object of about 700 bytes:
// the request frame, the broker's retrieval and reply, and the reply's
// decode into the row's map, both ends in this process.
func TestSocketRetrievalAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own")
	}
	rows, err := json.Marshal([]map[string]any{{"etype": "fire", "severity": 3.0,
		"location": map[string]any{"lat": 33.64, "lon": -117.84},
		"message":  strings.Repeat("structure fire near campus; ", 22)}})
	if err != nil {
		t.Fatal(err)
	}
	p := newCachedPair(t, rows)
	get := func() {
		// Rewound, the watermark acks nothing and keeps nothing out: each
		// retrieval is served the same cached object.
		p.alice.mu.Lock()
		p.alice.subs[p.fsA].lastTS = 0
		p.alice.mu.Unlock()
		items, err := p.alice.GetResults(p.fsA)
		if err != nil || len(items) != 1 || !items[0].FromCache || len(items[0].Rows) != 1 {
			panic(fmt.Sprintf("retrieval = %+v, %v; want the cached one-row object", items, err))
		}
	}
	get()
	allocs := testing.AllocsPerRun(100, get)
	if n := p.gets.Load(); n != 0 {
		t.Fatalf("%d retrievals went over HTTP, want none", n)
	}
	// 26, of which the reply's decode is 12: the frame's one string, the
	// items and rows slices, the row's two maps (two each) and its five
	// boxed values. It spent 41 with a context node per span and parent,
	// a request ID string, a timer and a request buffer per retrieval and
	// the frame headers' reads moved to the heap.
	if allocs > 26 {
		t.Errorf("socket retrieval = %v allocs, want at most 26", allocs)
	}
}

// TestTracedDeliveryAllocs bounds the path every live delivery takes, both
// ends in this process. A publication ingested over HTTP roots a trace, so
// the broker's marker carries it: the hub's traced deliver writes it under
// a session.ws_write span, alice's pump reads it, and her GetResults asks
// over the socket with a child of it as the traceparent; the results
// route begins its server span from that, the cache answers a one-row
// object of about 700 bytes, and the reply is read and decoded. One run is
// one publication's arrival at the broker, push and retrieval. The spans
// a delivery records are then held to the tree every delivery records.
func TestTracedDeliveryAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own")
	}
	rows, err := json.Marshal([]map[string]any{{"etype": "fire", "severity": 3.0,
		"location": map[string]any{"lat": 33.64, "lon": -117.84},
		"message":  strings.Repeat("structure fire near campus; ", 22)}})
	if err != nil {
		t.Fatal(err)
	}
	p := newCachedPair(t, rows)
	const runs = 100
	objs := make([][]bdms.ResultObject, runs+3) // warm-up, AllocsPerRun's own warm-up, runs, the traced one
	for i := range objs {
		ts := time.Duration(i+2) * time.Second
		objs[i] = []bdms.ResultObject{{ID: fmt.Sprintf("%s-r%06d", p.bs, i+2), SubscriptionID: p.bs,
			Timestamp: ts, PrevNS: int64(ts - time.Second), Rows: rows, Size: int64(len(rows))}}
	}
	next := 0
	deliver := func(ctx context.Context) []broker.ResultItem {
		o := objs[next]
		next++
		if err := p.b.HandleNotificationContext(ctx, p.bs, o[0].Timestamp, o); err != nil {
			panic(err)
		}
		if n := <-p.alice.Notifications(); n.LatestNS != int64(o[0].Timestamp) {
			panic(fmt.Sprintf("push announced %d, want %d", n.LatestNS, o[0].Timestamp))
		}
		items, err := p.alice.GetResults(p.fsA)
		if err != nil || len(items) == 0 || items[len(items)-1].TimestampNS != int64(o[0].Timestamp) || !items[0].FromCache {
			panic(fmt.Sprintf("retrieval = %+v, %v; want the pushed object from the cache", items, err))
		}
		return items
	}
	traced := obs.ContextWithSpan(context.Background(), obs.NewSpan()) // the trace an ingest request roots
	deliver(traced)                                                    // the object cached at set-up, and this one
	allocs := testing.AllocsPerRun(runs, func() {
		if items := deliver(traced); len(items) != 1 {
			panic(fmt.Sprintf("retrieval = %d items, want 1", len(items)))
		}
	})
	if n := p.gets.Load(); n != 0 {
		t.Fatalf("%d retrievals went over HTTP, want none", n)
	}
	// 40, both ends and the arrival included. The parent spent 61: beside
	// the five spans, a context node for each of them and for the
	// client's unrecorded one, one for each held or parsed parent (three),
	// the request ID's node and string, two traceparent strings, the
	// retrieval's timer and request buffer, and the frame headers its
	// three frame reads moved to the heap.
	if allocs > 41 {
		t.Errorf("traced delivery = %v allocs, want at most 41", allocs)
	}

	publication := obs.NewSpan()
	deliver(obs.ContextWithSpan(context.Background(), publication))
	want := []string{
		"broker.notify <- publication backend_sub=" + p.bs + " pushed=1",
		"session.ws_write <- broker.notify subscriber=alice",
		"http /v1/subscriptions/{fs}/results <- unrecorded method=WS status=200 transport=ws",
		"broker.client_ack <- http /v1/subscriptions/{fs}/results subscriber=alice",
		"cache.local_hit <- http /v1/subscriptions/{fs}/results backend_sub=" + p.bs + " objects=1",
	}
	sort.Strings(want)
	if got := spanTree(t, p.traces, publication); !reflect.DeepEqual(got, want) {
		t.Errorf("a traced delivery records\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// spanTree renders the spans rec recorded in publication's trace, sorted,
// each as its name, "<-" its parent's name ("publication" for the root,
// "unrecorded" for a span ID no recorded span has) and its attributes.
func spanTree(t *testing.T, rec *span.Recorder, publication obs.SpanContext) []string {
	t.Helper()
	var tr span.Trace
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var err error
		// The server span ends after its reply is written.
		if tr, err = rec.Lookup(publication.TraceIDString()); err == nil && len(tr.Spans) >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s: %d spans, %v", publication.TraceIDString(), len(tr.Spans), err)
		}
	}
	names := map[string]string{publication.SpanIDString(): "publication"}
	for _, sp := range tr.Spans {
		names[sp.SpanID] = sp.Name
	}
	var out []string
	for _, sp := range tr.Spans {
		parent, ok := names[sp.ParentID]
		if !ok {
			parent = "unrecorded"
		}
		line := sp.Name + " <- " + parent
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += " " + k + "=" + sp.Attrs[k]
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
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
