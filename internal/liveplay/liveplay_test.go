package liveplay

import (
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
	"gobad/internal/trace"
	"gobad/internal/workload"
)

// liveStack spins up a real cluster+broker over loopback HTTP with the
// emergency catalog registered.
func liveStack(t *testing.T) (*bdms.Client, string, *broker.Broker) {
	t.Helper()
	notifier := bdms.NewWebhookNotifier(2, 256, nil)
	t.Cleanup(notifier.Close)
	cluster := bdms.NewCluster(bdms.WithNotifier(notifier))
	for _, ds := range []string{"EmergencyReports", "Shelters"} {
		if err := cluster.CreateDataset(ds, bdms.Schema{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range workload.EmergencyChannels() {
		if err := cluster.DefineChannel(bdms.ChannelDef{
			Name: spec.Name, Params: spec.Params, Body: spec.Body, Period: spec.Period,
		}); err != nil {
			t.Fatal(err)
		}
	}
	clusterSrv := httptest.NewServer(bdms.NewServer(cluster).Handler())
	t.Cleanup(clusterSrv.Close)

	// Repetitive channel driver.
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				cluster.RunRepetitiveDue()
			}
		}
	}()

	brokerSrv := httptest.NewUnstartedServer(nil)
	brokerSrv.Start()
	t.Cleanup(brokerSrv.Close)
	b, err := broker.New(broker.Config{
		ID:          "live-broker",
		Backend:     bdms.NewClient(clusterSrv.URL, nil),
		CallbackURL: brokerSrv.URL + "/v1/callbacks/results",
		Policy:      core.LSC{},
		CacheBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	brokerSrv.Config.Handler = broker.NewServer(b).Handler()
	return bdms.NewClient(clusterSrv.URL, nil), brokerSrv.URL, b
}

func TestNewPlayerValidation(t *testing.T) {
	if _, err := NewPlayer(Config{}); err == nil {
		t.Error("missing cluster should fail")
	}
	if _, err := NewPlayer(Config{Cluster: bdms.NewClient("http://x", nil)}); err == nil {
		t.Error("missing broker URL should fail")
	}
}

func TestLivePlayback(t *testing.T) {
	clusterClient, brokerURL, brk := liveStack(t)

	gen := trace.DefaultGenConfig()
	gen.Subscribers = 12
	gen.UniqueSubscriptions = 30
	gen.SubsPerSubscriber = 3
	gen.Duration = 4 * time.Minute
	gen.PublishInterval = 3 * time.Second
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}

	player, err := NewPlayer(Config{
		Cluster:   clusterClient,
		BrokerURL: brokerURL,
		Speedup:   120, // 4 virtual minutes in ~2 wall seconds
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	start := time.Now()
	if err := trace.Play(tr, player); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 30*time.Second {
		t.Errorf("playback took %v, speedup not applied?", elapsed)
	}
	// Wait (bounded) for in-flight webhooks and pumps to land — the
	// playback has finished, so subscriptions and at least one retrieval
	// must appear once the async tail drains; then close.
	settled := time.Now().Add(5 * time.Second)
	for brk.NumFrontendSubs() == 0 || brk.Stats().Requests.Value() == 0 {
		if time.Now().After(settled) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	player.Close()

	if brk.NumFrontendSubs() == 0 {
		t.Error("no frontend subscriptions established")
	}
	if brk.Stats().Requests.Value() == 0 {
		t.Error("no retrievals happened")
	}
	// The pacing must roughly match Duration/Speedup (2s) plus overhead.
	if elapsed < time.Second {
		t.Errorf("playback finished too fast (%v); pacing broken", elapsed)
	}
}

func TestPlayerUnknownUnsubscribe(t *testing.T) {
	clusterClient, brokerURL, _ := liveStack(t)
	player, err := NewPlayer(Config{Cluster: clusterClient, BrokerURL: brokerURL, Speedup: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	if err := player.Unsubscribe("ghost", "Alerts", nil); err == nil {
		t.Error("unsubscribing something never subscribed should fail")
	}
}

func TestPlayerRelogin(t *testing.T) {
	clusterClient, brokerURL, _ := liveStack(t)
	player, err := NewPlayer(Config{Cluster: clusterClient, BrokerURL: brokerURL, Speedup: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	if err := player.Subscribe("u1", "EmergencyAlerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	// Login twice without logout: the pump is replaced, not leaked.
	if err := player.Login("u1"); err != nil {
		t.Fatal(err)
	}
	if err := player.Login("u1"); err != nil {
		t.Fatal(err)
	}
	if err := player.Logout("u1"); err != nil {
		t.Fatal(err)
	}
	// Logout again is a no-op.
	if err := player.Logout("u1"); err != nil {
		t.Fatal(err)
	}
}

func TestPlayerPublishError(t *testing.T) {
	clusterClient, brokerURL, _ := liveStack(t)
	player, err := NewPlayer(Config{Cluster: clusterClient, BrokerURL: brokerURL, Speedup: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	if err := player.Publish("NoSuchDataset", map[string]any{"x": 1.0}); err == nil {
		t.Error("publishing to a missing dataset should fail")
	}
}
