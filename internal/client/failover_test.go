package client

import (
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
)

// newBrokerOn starts a broker server against the given cluster and
// registers it with the BCS service.
func newBrokerOn(t *testing.T, id, clusterURL string, svc *bcs.Service) (*broker.Broker, *httptest.Server) {
	t.Helper()
	srv := httptest.NewUnstartedServer(nil)
	srv.Start()
	b, err := broker.New(broker.Config{
		ID:          id,
		Backend:     bdms.NewClient(clusterURL, nil),
		CallbackURL: srv.URL + "/v1/callbacks/results",
		Policy:      core.LSC{},
		CacheBudget: 1 << 20,
		// Fabric without BCS/peers: ring views are installed directly by
		// the tests that exercise rebalancing.
		Fabric: &broker.FabricConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = broker.NewServer(b).Handler()
	if err := svc.Register(id, srv.URL); err != nil {
		t.Fatal(err)
	}
	return b, srv
}

func TestBrokerFailoverThroughBCS(t *testing.T) {
	// Shared backend.
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

	// BCS with two registered brokers. Placement is HRW by subscriber key:
	// "bob" deterministically owns to broker-1 (asserted below so a hash
	// change fails loudly here, not in the failover assertions).
	svc := bcs.NewService()
	bcsSrv := httptest.NewServer(bcs.NewServer(svc).Handler())
	t.Cleanup(bcsSrv.Close)
	_, srv1 := newBrokerOn(t, "broker-1", clusterSrv.URL, svc)
	b2, srv2 := newBrokerOn(t, "broker-2", clusterSrv.URL, svc)
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
	if c.BrokerURL() != srv1.URL {
		t.Fatalf("assigned %s, want broker-1 at %s", c.BrokerURL(), srv1.URL)
	}
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}

	// broker-1 dies.
	srv1.Close()
	if err := svc.Deregister("broker-1"); err != nil {
		t.Fatal(err)
	}

	// Operations against the dead broker fail; the client fails over.
	if _, err := c.Subscriptions(); err == nil {
		t.Fatal("dead broker should error")
	}
	err = c.Rediscover([]Resubscription{{Channel: "Alerts", Params: []any{"fire"}}})
	if err != nil {
		t.Fatal(err)
	}
	if c.BrokerURL() != srv2.URL {
		t.Fatalf("failed over to %s, want broker-2 at %s", c.BrokerURL(), srv2.URL)
	}
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
	subs, err := c.Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Fatalf("resubscribed %d, want 1", len(subs))
	}

	// End-to-end through the new broker: a publication reaches bob.
	if _, err := bdms.NewClient(clusterSrv.URL, nil).Ingest("EmergencyReports", map[string]any{
		"etype": "fire", "severity": 2.0,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-c.Notifications():
		items, err := c.GetResults(n.FrontendSub)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 1 {
			t.Fatalf("got %d results after failover", len(items))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no notification through the failover broker")
	}
	if b2.NumSubscribers() != 1 {
		t.Errorf("broker-2 subscribers = %d", b2.NumSubscribers())
	}
}

func TestRediscoverWithoutBCS(t *testing.T) {
	c, err := New(Config{Subscriber: "x", BrokerURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Rediscover(nil); err == nil {
		t.Error("Rediscover without BCS should fail")
	}
}
