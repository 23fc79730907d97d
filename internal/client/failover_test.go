package client

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
	"gobad/internal/faults"
)

// testBroker is one live broker of a test fabric: the broker, its HTTP
// wrapper (whose span recorder the trace tests inspect) and its server.
type testBroker struct {
	*broker.Broker
	hs  *broker.Server
	srv *httptest.Server
	// kill severs the broker whole, like a process death — listener, HTTP
	// conns and the hijacked WebSockets httptest stops tracking.
	kill func()
}

// newBrokerOn starts a broker server against the given cluster and
// registers it with the BCS service; opts adjust its configuration.
func newBrokerOn(t *testing.T, id, clusterURL string, svc *bcs.Service, opts ...func(*broker.Config)) *testBroker {
	t.Helper()
	srv := httptest.NewUnstartedServer(nil)
	kl := faults.NewKillableListener(srv.Listener)
	srv.Listener = kl
	srv.Start()
	t.Cleanup(func() { kl.Kill(); srv.Close() })
	cfg := broker.Config{
		ID:          id,
		Backend:     bdms.NewClient(clusterURL, nil),
		CallbackURL: srv.URL + "/v1/callbacks/results",
		Policy:      core.LSC{},
		CacheBudget: 1 << 20,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	b, err := broker.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := broker.NewServer(b)
	srv.Config.Handler = hs.Handler()
	if err := svc.Register(id, srv.URL); err != nil {
		t.Fatal(err)
	}
	return &testBroker{Broker: b, hs: hs, srv: srv, kill: kl.Kill}
}

// TestBrokerFailoverThroughBCS kills a subscriber's broker before its
// first delivery: the supervisor re-homes the session through the BCS with
// the resume token Subscribe seeded, and what was published while the
// broker was dead arrives exactly once through the successor, under the
// subscription ID the application already holds.
func TestBrokerFailoverThroughBCS(t *testing.T) {
	env := newChaosEnv(t)
	c := env.client
	fs, err := c.Subscribe("Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}

	if err := env.svc.Deregister("broker-1"); err != nil {
		t.Fatal(err)
	}
	env.b1.kill()
	env.publish(t, 1) // while broker-1 is dead

	env.awaitConnected(t, env.b2.srv.URL)
	if c.BrokerURL() != env.b2.srv.URL {
		t.Fatalf("failed over to %s, want broker-2 at %s", c.BrokerURL(), env.b2.srv.URL)
	}
	subs, err := c.Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Fatalf("resubscribed %d, want 1", len(subs))
	}

	var got []broker.ResultItem
	collect(t, env, fs, &got, 1)
	// The live tail after it: a duplicate of the gap result would show up
	// here as a third item or a repeated severity.
	env.publish(t, 1)
	collect(t, env, fs, &got, 2)
	verifyStream(t, got, 2)
	if env.b2.NumSubscribers() != 1 {
		t.Errorf("broker-2 subscribers = %d", env.b2.NumSubscribers())
	}
}

// TestReplacedSessionStopsSupervision attaches two clients as one
// subscriber. The broker closes the older session normally when the newer
// one attaches; the older client's supervisor must take that as final — a
// reconnect would replace its replacer, and the two would take turns
// without backoff.
func TestReplacedSessionStopsSupervision(t *testing.T) {
	st := newStack(t, core.LSC{}, 1<<20)
	var attaches atomic.Int32
	inner := st.brokerSrv.Config.Handler
	st.brokerSrv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/ws" {
			attaches.Add(1)
		}
		inner.ServeHTTP(w, r)
	})
	listen := func() (*Client, chan struct{}) {
		c, err := New(Config{Subscriber: "alice", BrokerURL: st.brokerURL})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Listen(); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		return c, c.supDone
	}
	ended := func(who string, supDone chan struct{}) {
		t.Helper()
		select {
		case <-supDone:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s client still supervised after being replaced", who)
		}
	}

	older, olderDone := listen()
	newer, newerDone := listen()
	ended("older", olderDone)
	if got := attaches.Load(); got != 2 {
		t.Fatalf("%d attaches after one replacement, want 2 (reconnect storm)", got)
	}
	if !st.broker.Online("alice") {
		t.Fatal("the replacing session is not online")
	}

	// Ended, not closed: Listen supervises again (and now replaces the
	// replacer, whose supervisor ends the same way).
	if err := older.Listen(); err != nil {
		t.Fatal(err)
	}
	ended("newer", newerDone)
	if got := attaches.Load(); got != 3 {
		t.Fatalf("%d attaches after two replacements, want 3", got)
	}
	newer.mu.Lock()
	restartable := newer.supDone == nil && newer.cancel == nil
	newer.mu.Unlock()
	if !restartable {
		t.Error("ended supervisor left its state behind; Listen would be a no-op")
	}
}
