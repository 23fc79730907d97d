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

// stack is a full live deployment over loopback HTTP: data cluster server,
// webhook notifier, broker server, BCS server.
type stack struct {
	clusterURL string
	brokerURL  string
	brokerSrv  *httptest.Server
	bcsURL     string
	cluster    *bdms.Cluster
	broker     *broker.Broker
}

func newStack(t *testing.T, policy core.Policy, budget int64) *stack {
	t.Helper()
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

	// The broker needs its callback URL before its server exists: use an
	// httptest server created around a lazily bound handler.
	var brk *broker.Broker
	brokerSrv := httptest.NewUnstartedServer(nil)
	brokerSrv.Start()
	t.Cleanup(brokerSrv.Close)

	b, err := broker.New(broker.Config{
		ID:          "it-broker",
		Backend:     bdms.NewClient(clusterSrv.URL, nil),
		CallbackURL: brokerSrv.URL + "/v1/callbacks/results",
		Policy:      policy,
		CacheBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	brk = b
	brokerSrv.Config.Handler = broker.NewServer(brk).Handler()

	bcsSvc := bcs.NewService()
	bcsSrv := httptest.NewServer(bcs.NewServer(bcsSvc).Handler())
	t.Cleanup(bcsSrv.Close)
	reg, err := broker.RegisterWithBCS(brk, bcs.NewClient(bcsSrv.URL, nil), brokerSrv.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)

	return &stack{
		clusterURL: clusterSrv.URL,
		brokerURL:  brokerSrv.URL,
		brokerSrv:  brokerSrv,
		bcsURL:     bcsSrv.URL,
		cluster:    cluster,
		broker:     brk,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing subscriber should fail")
	}
	if _, err := New(Config{Subscriber: "s"}); err == nil {
		t.Error("missing broker and BCS should fail")
	}
}

func TestDiscoveryThroughBCS(t *testing.T) {
	st := newStack(t, core.LSC{}, 1<<20)
	c, err := New(Config{
		Subscriber: "alice",
		BCS:        bcs.NewClient(st.bcsURL, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.BrokerURL() != st.brokerURL {
		t.Errorf("discovered %s, want %s", c.BrokerURL(), st.brokerURL)
	}
}

func TestEndToEndNotifyAndRetrieve(t *testing.T) {
	st := newStack(t, core.LSC{}, 1<<20)
	c, err := New(Config{Subscriber: "alice", BrokerURL: st.brokerURL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
	fs, err := c.Subscribe("Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}

	// Publish a matching emergency through the cluster's REST API.
	clusterClient := bdms.NewClient(st.clusterURL, nil)
	if _, err := clusterClient.Ingest("EmergencyReports", map[string]any{
		"etype": "fire", "severity": 4.0,
	}); err != nil {
		t.Fatal(err)
	}

	// The webhook -> broker -> websocket chain must deliver a push.
	select {
	case n := <-c.Notifications():
		if n.FrontendSub != fs {
			t.Errorf("notified fs = %s, want %s", n.FrontendSub, fs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no push notification received")
	}

	items, err := c.GetResults(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatalf("got %d results, want 1", len(items))
	}
	if !items[0].FromCache {
		t.Error("result should be served from the broker cache")
	}
	if items[0].Rows[0]["etype"] != "fire" {
		t.Errorf("rows = %v", items[0].Rows)
	}

	// A second retrieval (post-ack) returns nothing new.
	items, err = c.GetResults(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Errorf("post-ack retrieval returned %d items", len(items))
	}
}

func TestOfflineSubscriberCatchesUp(t *testing.T) {
	st := newStack(t, core.LSC{}, 1<<20)
	c, err := New(Config{Subscriber: "bob", BrokerURL: st.brokerURL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Subscribe("Alerts", []any{"flood"})
	if err != nil {
		t.Fatal(err)
	}
	// bob never listens (offline); publications accumulate at the broker.
	clusterClient := bdms.NewClient(st.clusterURL, nil)
	for i := 0; i < 3; i++ {
		if _, err := clusterClient.Ingest("EmergencyReports", map[string]any{
			"etype": "flood", "severity": float64(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until all three webhook deliveries have landed at the broker:
	// bob is the cache's only subscriber, so it holds every result.
	cached := func() int {
		n := 0
		for _, ci := range st.broker.Manager().CacheInfos() {
			n += ci.Objects
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for cached() < 3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	items, err := c.GetResults(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("offline catch-up returned %d results, want 3", len(items))
	}
}

func TestLogoutKeepsSubscriptions(t *testing.T) {
	st := newStack(t, core.LSC{}, 1<<20)
	c, err := New(Config{Subscriber: "carol", BrokerURL: st.brokerURL})
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
	c.Logout()
	subs, err := c.Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Errorf("subscriptions after logout = %v, want 1", subs)
	}
	// Re-login works.
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
}

func TestUnsubscribeViaClient(t *testing.T) {
	st := newStack(t, core.LSC{}, 1<<20)
	c, err := New(Config{Subscriber: "dave", BrokerURL: st.brokerURL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Subscribe("Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(fs); err != nil {
		t.Fatal(err)
	}
	subs, err := c.Subscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Errorf("subscriptions = %v, want none", subs)
	}
	if st.cluster.NumSubscriptions() != 0 {
		t.Error("backend subscription should be withdrawn")
	}
}

func TestListenAfterCloseFails(t *testing.T) {
	st := newStack(t, core.LSC{}, 1<<20)
	c, err := New(Config{Subscriber: "eve", BrokerURL: st.brokerURL})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Listen(); err == nil {
		t.Error("listen after close should fail")
	}
}
