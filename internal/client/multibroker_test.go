package client

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
)

// TestLoadSpreadsAcrossBrokers exercises the broker-network story: many
// subscribers arrive through the BCS, HRW placement pins each one to the
// broker the ring says owns it — spreading the population across both
// brokers — while all of them keep receiving results end-to-end.
func TestLoadSpreadsAcrossBrokers(t *testing.T) {
	notifier := bdms.NewWebhookNotifier(2, 256, nil)
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

	brokers := make([]*broker.Broker, 2)
	for i := range brokers {
		brokers[i] = newBrokerOn(t, fmt.Sprintf("lb-broker-%d", i), clusterSrv.URL, svc).Broker
	}

	// Subscribers arrive one at a time; after each arrival the chosen
	// broker heartbeats its new load, steering the next arrival.
	const population = 10
	clients := make([]*Client, 0, population)
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
	})
	for i := 0; i < population; i++ {
		c, err := New(Config{
			Subscriber: fmt.Sprintf("user-%02d", i),
			BCS:        bcs.NewClient(bcsSrv.URL, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if err := c.Listen(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe("Alerts", []any{"fire"}); err != nil {
			t.Fatal(err)
		}
		for _, b := range brokers {
			if err := svc.Heartbeat(b.ID(), b.NumSubscribers(), false); err != nil {
				t.Fatal(err)
			}
		}
	}

	n0, n1 := brokers[0].NumSubscribers(), brokers[1].NumSubscribers()
	if n0+n1 != population {
		t.Fatalf("subscribers = %d+%d, want %d", n0, n1, population)
	}
	if n0 == 0 || n1 == 0 {
		t.Errorf("HRW placement put everything on one broker: %d vs %d", n0, n1)
	}
	// Every subscriber must sit on the broker the ring says owns it —
	// placement is a pure function of (ring, subscriber key).
	ring := svc.Ring()
	want := map[string]int{}
	for i := 0; i < population; i++ {
		want[ring.OwnerID(fmt.Sprintf("user-%02d", i))]++
	}
	if want[brokers[0].ID()] != n0 || want[brokers[1].ID()] != n1 {
		t.Errorf("placement disagrees with ring: got %d/%d, ring says %d/%d",
			n0, n1, want[brokers[0].ID()], want[brokers[1].ID()])
	}
	// Both brokers suppressed their local duplicates into one backend
	// subscription each.
	if got := cluster.NumSubscriptions(); got != 2 {
		t.Errorf("cluster subscriptions = %d, want 2 (one per broker)", got)
	}

	// A publication fans out through BOTH brokers to every subscriber.
	if _, err := bdms.NewClient(clusterSrv.URL, nil).Ingest("EmergencyReports", map[string]any{
		"etype": "fire", "severity": 3.0,
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		select {
		case n := <-c.Notifications():
			items, err := c.GetResults(n.FrontendSub)
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != 1 {
				t.Errorf("client %d got %d results", i, len(items))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("client %d never notified", i)
		}
	}
}
