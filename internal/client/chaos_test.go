package client

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/httpx"
)

// chaosEnv is the failover chaos rig: a real cluster behind HTTP, a BCS
// with two registered brokers, and a supervised client streaming through
// broker-1 — ready to have its broker killed or drained mid-stream.
type chaosEnv struct {
	cluster    *bdms.Cluster
	notifStats *bdms.NotifierStats
	clusterSrv *httptest.Server
	svc        *bcs.Service
	b1, b2     *testBroker
	client     *Client

	stateMu sync.Mutex
	states  []ConnState
	// connected receives the broker URL of every StateConnected report.
	connected chan string

	published int
}

func newChaosEnv(t *testing.T) *chaosEnv {
	return newChaosEnvFor(t, "bob")
}

// newChaosEnvFor builds the rig for a specific subscriber key; the key must
// be HRW-owned by broker-1 so the kill/drain/rebalance tests start from a
// known placement.
func newChaosEnvFor(t *testing.T, subscriber string) *chaosEnv {
	t.Helper()
	// Sized for the reports one drill makes; a full channel drops them.
	env := &chaosEnv{connected: make(chan string, 16)}

	env.notifStats = &bdms.NotifierStats{}
	notifier := bdms.NewWebhookNotifier(2, 256, nil,
		bdms.WithNotifierBackoff(5*time.Millisecond, 50*time.Millisecond),
		bdms.WithNotifierStats(env.notifStats))
	t.Cleanup(notifier.Close)
	env.cluster = bdms.NewCluster(bdms.WithNotifier(notifier))
	env.clusterSrv = httptest.NewServer(bdms.NewServer(env.cluster).Handler())
	t.Cleanup(env.clusterSrv.Close)
	if err := env.cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := env.cluster.DefineChannel(bdms.ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}

	env.svc = bcs.NewService()
	bcsSrv := httptest.NewServer(bcs.NewServer(env.svc).Handler())
	t.Cleanup(bcsSrv.Close)
	// HRW must place the subscriber on broker-1 (asserted so a hash change
	// fails loudly here rather than in the failover assertions).
	env.b1 = newBrokerOn(t, "broker-1", env.clusterSrv.URL, env.svc)
	env.b2 = newBrokerOn(t, "broker-2", env.clusterSrv.URL, env.svc)
	if got := env.svc.Ring().OwnerID(subscriber); got != "broker-1" {
		t.Fatalf("HRW owner of %q = %s, want broker-1 (pick a key owned by broker-1)", subscriber, got)
	}

	c, err := New(Config{
		Subscriber: subscriber,
		BCS:        bcs.NewClient(bcsSrv.URL, nil),
		Retry:      &httpx.Retryer{BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
		OnConnState: func(s ConnState, brokerURL string) {
			env.stateMu.Lock()
			env.states = append(env.states, s)
			env.stateMu.Unlock()
			if s == StateConnected {
				select {
				case env.connected <- brokerURL:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	env.client = c
	if c.BrokerURL() != env.b1.srv.URL {
		t.Fatalf("assigned %s, want broker-1 at %s", c.BrokerURL(), env.b1.srv.URL)
	}
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
	return env
}

// publish ingests n more publications, each carrying its 1-based sequence
// number as severity so losses, duplicates and reordering are all visible
// in the delivered stream.
func (env *chaosEnv) publish(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		env.published++
		_, err := env.cluster.Ingest("EmergencyReports", map[string]any{
			"etype": "fire", "severity": float64(env.published),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sawState reports whether the supervisor passed through the given state.
func (env *chaosEnv) sawState(want ConnState) bool {
	env.stateMu.Lock()
	defer env.stateMu.Unlock()
	for _, s := range env.states {
		if s == want {
			return true
		}
	}
	return false
}

// awaitConnected blocks until the supervisor reports the session
// established on brokerURL.
func (env *chaosEnv) awaitConnected(t *testing.T, brokerURL string) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case got := <-env.connected:
			if got == brokerURL {
				return
			}
		case <-deadline:
			t.Fatalf("never connected to %s (client on %s)", brokerURL, env.client.BrokerURL())
		}
	}
}

// collect drains notifications and retrieves results until the delivered
// stream holds want items, failing the test at the deadline. Retrieval
// errors during an outage window are expected (the resumed session
// re-pushes a marker for anything outstanding) but any items returned
// alongside an error are consumed per the GetResults contract. Every
// notification must name fs, the ID Subscribe returned: failover never
// changes the application's handle.
func collect(t *testing.T, env *chaosEnv, fs string, got *[]broker.ResultItem, want int) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for len(*got) < want {
		select {
		case n := <-env.client.Notifications():
			if n.FrontendSub != fs {
				t.Fatalf("notification for subscription %q, want %q", n.FrontendSub, fs)
			}
			items, err := env.client.GetResults(fs)
			if err != nil {
				t.Logf("collect: GetResults(%s): %v", fs, err)
			}
			// Items that arrive with an error (failed ack) are already past
			// the client's dedup watermark — consume them, or they are lost.
			*got = append(*got, items...)
		case <-deadline:
			sevs := make([]float64, 0, len(*got))
			for _, item := range *got {
				if len(item.Rows) == 1 {
					sev, _ := item.Rows[0]["severity"].(float64)
					sevs = append(sevs, sev)
				}
			}
			t.Fatalf("delivered %d of %d results (subscription %s, client on %s, states %v, severities %v)",
				len(*got), want, fs, env.client.BrokerURL(), env.states, sevs)
		}
	}
}

// verifyStream asserts the zero-loss acceptance property: the deduped
// delivered stream is exactly the full published sequence, in timestamp
// order.
func verifyStream(t *testing.T, got []broker.ResultItem, want int) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("delivered %d results, want %d", len(got), want)
	}
	lastTS := int64(-1)
	for i, item := range got {
		if item.TimestampNS <= lastTS {
			t.Fatalf("result %d: timestamp %d not strictly after %d (duplicate or reorder)",
				i, item.TimestampNS, lastTS)
		}
		lastTS = item.TimestampNS
		if len(item.Rows) != 1 {
			t.Fatalf("result %d: %d rows, want 1", i, len(item.Rows))
		}
		if sev, _ := item.Rows[0]["severity"].(float64); sev != float64(i+1) {
			t.Fatalf("result %d: severity %v, want %d (lost or reordered publication)",
				i, item.Rows[0]["severity"], i+1)
		}
	}
}

// TestSupervisedFailoverBrokerKill is the broker-kill acceptance test: two
// brokers registered at the BCS, the client's broker is killed mid-stream,
// and with zero application intervention the supervised client reconnects
// through the BCS, resumes with its token, backfills the gap and keeps the
// stream whole — the deduped delivery equals the full published sequence
// in timestamp order.
func TestSupervisedFailoverBrokerKill(t *testing.T) {
	env := newChaosEnv(t)
	fs, err := env.client.Subscribe("Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}

	var got []broker.ResultItem
	env.publish(t, 10)
	collect(t, env, fs, &got, 10)

	// Kill broker-1 mid-stream: the BCS learns it is gone (heartbeat
	// expiry, modeled as deregistration) and every connection — the live
	// WebSocket included — drops hard, like a process death.
	if err := env.svc.Deregister("broker-1"); err != nil {
		t.Fatal(err)
	}
	env.b1.kill()

	// The gap: published while the client is disconnected; recovered by
	// the resume backfill on broker-2.
	env.publish(t, 5)
	collect(t, env, fs, &got, 15)

	if env.client.BrokerURL() != env.b2.srv.URL {
		t.Fatalf("client on %s after kill, want broker-2 at %s", env.client.BrokerURL(), env.b2.srv.URL)
	}

	// Live tail through the new broker.
	env.publish(t, 5)
	collect(t, env, fs, &got, 20)

	verifyStream(t, got, 20)
	if !env.sawState(StateReconnecting) {
		t.Error("supervisor never reported StateReconnecting")
	}
	if env.client.Failover().Reconnects.Load() == 0 {
		t.Error("bad_failover_reconnects_total = 0 after a broker kill")
	}
	if env.b2.NumSubscribers() != 1 {
		t.Errorf("broker-2 subscribers = %d, want 1", env.b2.NumSubscribers())
	}
}

// TestSupervisedRollingDrain is the rolling-restart acceptance test: the
// client's broker drains gracefully, handing the session a migrate frame
// naming broker-2; the client fails over immediately (no backoff, no BCS
// round trip) and the stream stays whole.
func TestSupervisedRollingDrain(t *testing.T) {
	env := newChaosEnv(t)
	fs, err := env.client.Subscribe("Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}

	var got []broker.ResultItem
	env.publish(t, 5)
	collect(t, env, fs, &got, 5)

	// Roll broker-1: deregister, then drain its sessions to broker-2.
	if err := env.svc.Deregister("broker-1"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if migrated := env.b1.Drain(ctx, env.b2.srv.URL); migrated != 1 {
		t.Fatalf("Drain migrated %d sessions, want 1", migrated)
	}
	if env.b1.Failover().DrainMigrated.Load() != 1 {
		t.Errorf("bad_drain_migrated_sessions_total = %d, want 1", env.b1.Failover().DrainMigrated.Load())
	}

	env.publish(t, 5)
	collect(t, env, fs, &got, 10)

	verifyStream(t, got, 10)
	if !env.sawState(StateMigrated) {
		t.Error("supervisor never reported StateMigrated — drain frame was missed")
	}
	if env.client.BrokerURL() != env.b2.srv.URL {
		t.Fatalf("client on %s after drain, want broker-2 at %s", env.client.BrokerURL(), env.b2.srv.URL)
	}
	if env.client.Failover().Resumes.Load() == 0 && env.b2.Failover().Resumes.Load() == 0 {
		t.Error("no resume recorded on the successor after migration")
	}
}

// TestRebalanceOnJoin is the fabric acceptance test for membership growth:
// a third broker joins mid-stream, the ring epoch advances, and broker-1's
// rebalance migrates exactly the sessions whose HRW owner moved — live,
// via the same migrate frame as a drain, with the stream staying gapless,
// deduplicated and ordered end to end.
func TestRebalanceOnJoin(t *testing.T) {
	// Pick a subscriber broker-1 owns under {broker-1, broker-2} whose
	// ownership moves to broker-3 when it joins — the HRW join property
	// says moved keys move only to the newcomer, so such keys are ~1/3 of
	// the space.
	two := bcs.RingView{Brokers: []bcs.BrokerInfo{{ID: "broker-1"}, {ID: "broker-2"}}}
	three := bcs.RingView{Brokers: []bcs.BrokerInfo{{ID: "broker-1"}, {ID: "broker-2"}, {ID: "broker-3"}}}
	subscriber := ""
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("mover-%02d", i)
		if two.OwnerID(k) == "broker-1" && three.OwnerID(k) == "broker-3" {
			subscriber = k
			break
		}
	}
	if subscriber == "" {
		t.Fatal("no candidate key moves broker-1 -> broker-3 on join")
	}

	env := newChaosEnvFor(t, subscriber)
	fs, err := env.client.Subscribe("Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("diag: srv1=%s srv2=%s subs b1=%d b2=%d client=%s notifier del=%d fail=%d redel=%d drop=%d lost=%d",
				env.b1.srv.URL, env.b2.srv.URL,
				env.b1.NumSubscribers(), env.b2.NumSubscribers(),
				env.client.BrokerURL(),
				env.notifStats.Delivered.Load(), env.notifStats.Failed.Load(),
				env.notifStats.Redelivered.Load(), env.notifStats.Dropped.Load(),
				env.notifStats.Lost.Load())
		}
	})

	var got []broker.ResultItem
	env.publish(t, 10)
	collect(t, env, fs, &got, 10)

	// Broker-3 joins the fabric; broker-1 observes the new ring and
	// rebalances. Our subscriber's owner moved, so exactly one session
	// migrates — broker-2's untouched keys stay put.
	b3 := newBrokerOn(t, "broker-3", env.clusterSrv.URL, env.svc)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("diag3: srv3=%s b3subs=%d b3resumes=%d b3backfilled=%d clientresumes=%d clientreconnects=%d",
				b3.srv.URL, b3.NumSubscribers(), b3.Failover().Resumes.Load(),
				b3.Failover().Backfilled.Load(), env.client.Failover().Resumes.Load(),
				env.client.Failover().Reconnects.Load())
		}
	})
	view := env.svc.Ring()
	if !view.Has("broker-3") {
		t.Fatalf("ring after join = %+v", view)
	}
	if !env.b1.SetRing(view) {
		t.Fatal("broker-1 rejected the joined ring view")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if migrated := env.b1.Rebalance(ctx); migrated != 1 {
		t.Fatalf("Rebalance migrated %d sessions, want 1", migrated)
	}
	if got := env.b1.Failover().RebalanceMigrated.Load(); got != 1 {
		t.Errorf("bad_rebalance_migrated_sessions_total = %d, want 1", got)
	}

	// The stream continues through broker-3 with no loss, duplication or
	// reordering across the migration.
	env.publish(t, 5)
	collect(t, env, fs, &got, 15)
	env.publish(t, 5)
	collect(t, env, fs, &got, 20)
	verifyStream(t, got, 20)

	if !env.sawState(StateMigrated) {
		t.Error("supervisor never reported StateMigrated — rebalance frame was missed")
	}
	if env.client.BrokerURL() != b3.srv.URL {
		t.Fatalf("client on %s after rebalance, want broker-3 at %s", env.client.BrokerURL(), b3.srv.URL)
	}
	if b3.NumSubscribers() != 1 {
		t.Errorf("broker-3 subscribers = %d, want 1", b3.NumSubscribers())
	}
	// An idempotent second rebalance with the same ring moves nothing.
	if migrated := env.b1.Rebalance(ctx); migrated != 0 {
		t.Errorf("second Rebalance migrated %d sessions, want 0", migrated)
	}
}
