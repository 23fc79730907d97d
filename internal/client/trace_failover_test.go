package client

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// newTracedBrokerOn is newBrokerOn plus access to the HTTP server wrapper,
// whose span recorder the trace assertions below inspect.
func newTracedBrokerOn(t *testing.T, id, clusterURL string, svc *bcs.Service) (*broker.Broker, *broker.Server, *httptest.Server) {
	t.Helper()
	srv := httptest.NewUnstartedServer(nil)
	srv.Start()
	b, err := broker.New(broker.Config{
		ID:          id,
		Backend:     bdms.NewClient(clusterURL, nil),
		CallbackURL: srv.URL + "/v1/callbacks/results",
		Policy:      core.LSC{},
		CacheBudget: 1 << 20,
		Fabric:      &broker.FabricConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := broker.NewServer(b)
	srv.Config.Handler = hs.Handler()
	if err := svc.Register(id, srv.URL); err != nil {
		t.Fatal(err)
	}
	return b, hs, srv
}

// TestFailoverDeliveriesStartFreshTrace kills a session's broker and checks
// the trace hygiene of the resumed session: deliveries through the
// successor are rooted in their own publication's fresh trace — not a
// continuation of anything the dead broker started — and the successor's
// recorder holds no spans from the pre-kill trace.
func TestFailoverDeliveriesStartFreshTrace(t *testing.T) {
	notifier := bdms.NewWebhookNotifier(2, 128, nil)
	t.Cleanup(notifier.Close)
	cluster := bdms.NewCluster(bdms.WithNotifier(notifier))
	clusterSrv := httptest.NewServer(bdms.NewServer(cluster).Handler())
	t.Cleanup(clusterSrv.Close)
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

	svc := bcs.NewService()
	bcsSrv := httptest.NewServer(bcs.NewServer(svc).Handler())
	t.Cleanup(bcsSrv.Close)
	_, _, srv1 := newTracedBrokerOn(t, "broker-1", clusterSrv.URL, svc)
	_, hs2, srv2 := newTracedBrokerOn(t, "broker-2", clusterSrv.URL, svc)
	t.Cleanup(srv2.Close)
	if got := svc.Ring().OwnerID("bob"); got != "broker-1" {
		t.Fatalf("HRW owner of %q = %s, want broker-1 (pick a key owned by broker-1)", "bob", got)
	}

	c, err := New(Config{
		Subscriber: "bob",
		BCS:        bcs.NewClient(bcsSrv.URL, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}

	// First delivery, through broker-1: capture its trace identity.
	if _, err := bdms.NewClient(clusterSrv.URL, nil).Ingest("EmergencyReports", map[string]any{
		"etype": "fire", "severity": 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	var firstTrace string
	select {
	case n := <-c.Notifications():
		sc, ok := obs.ParseTraceparent(n.Traceparent)
		if !ok {
			t.Fatalf("pre-kill push frame traceparent %q unparseable", n.Traceparent)
		}
		firstTrace = sc.TraceIDString()
	case <-time.After(10 * time.Second):
		t.Fatal("no notification through broker-1")
	}

	// broker-1 dies; the session resumes on broker-2.
	srv1.Close()
	if err := svc.Deregister("broker-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rediscover([]Resubscription{{Channel: "Alerts", Params: []any{"fire"}}}); err != nil {
		t.Fatal(err)
	}
	if c.BrokerURL() != srv2.URL {
		t.Fatalf("failed over to %s, want broker-2 at %s", c.BrokerURL(), srv2.URL)
	}
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}

	// Second delivery, through broker-2: a fresh trace root.
	if _, err := bdms.NewClient(clusterSrv.URL, nil).Ingest("EmergencyReports", map[string]any{
		"etype": "fire", "severity": 2.0,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-c.Notifications():
		sc, ok := obs.ParseTraceparent(n.Traceparent)
		if !ok {
			t.Fatalf("post-failover push frame traceparent %q unparseable", n.Traceparent)
		}
		if sc.TraceIDString() == firstTrace {
			t.Fatalf("post-failover delivery reused the dead broker's trace %s", firstTrace)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no notification through the failover broker")
	}

	// The dead broker's trace must not leak into the successor's recorder:
	// broker-2 saw nothing of the first publication (bob wasn't its
	// subscriber yet), so looking it up there reports not-found.
	if _, err := hs2.Observer().Traces.Lookup(firstTrace); !errors.Is(err, span.ErrNotFound) {
		t.Fatalf("successor's recorder resolved the dead broker's trace %s (err=%v)", firstTrace, err)
	}
}
