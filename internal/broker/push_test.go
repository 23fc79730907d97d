package broker

import (
	"context"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
)

// newPushEnv wires an in-process PUSH-model cluster to a broker.
func newPushEnv(t *testing.T, policy core.Policy, budget int64) *testEnv {
	t.Helper()
	env := &testEnv{clk: &testClock{}}
	env.cluster = bdms.NewCluster(
		bdms.WithClock(env.clk.Now),
		bdms.WithPushModel(),
		bdms.WithNotifier(pushAdapter{env: env}),
	)
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
	b, err := New(Config{
		ID:          "push-broker",
		Backend:     env.cluster,
		Policy:      policy,
		CacheBudget: budget,
		Clock:       env.clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.broker = b
	return env
}

// pushAdapter delivers push notifications straight into the broker.
type pushAdapter struct{ env *testEnv }

func (a pushAdapter) NotifyContext(ctx context.Context, subID, _ string, latest time.Duration) {
	if a.env.broker != nil {
		_ = a.env.broker.HandleNotificationContext(ctx, subID, latest, nil)
	}
}

func (a pushAdapter) NotifyPushContext(ctx context.Context, subID, _ string, obj bdms.ResultObject) {
	if a.env.broker != nil {
		_ = a.env.broker.HandleNotificationContext(ctx, subID, obj.Timestamp, []bdms.ResultObject{obj})
	}
}

func TestPushModelCachesWithoutFetching(t *testing.T) {
	env := newPushEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	env.publish(t, "fire", 4)

	ret, err := b.RetrieveContext(context.Background(), "alice", fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 2 {
		t.Fatalf("got %d results, want 2", len(ret.Items))
	}
	for _, it := range ret.Items {
		if !it.FromCache {
			t.Error("pushed results should be cached")
		}
	}
	if err := b.Ack("alice", fs, ret.Latest); err != nil {
		t.Fatal(err)
	}
	// The PUSH model's point: results entered the cache without any
	// fetch from the cluster.
	if got := b.Stats().FetchBytes.Value(); got != 0 {
		t.Errorf("fetch bytes = %v, want 0 under PUSH", got)
	}
	if b.Stats().VolumeBytes.Value() <= 0 {
		t.Error("pushed bytes should count toward volume")
	}
}

func TestPushModelDuplicateIgnored(t *testing.T) {
	env := newPushEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	if _, err := b.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	// Replaying the same pushed object must be a no-op.
	objs, err := env.cluster.Results(cacheIDOf(t, b), 0, env.clk.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 {
		t.Fatalf("results = %d", len(objs))
	}
	if err := b.HandleNotificationContext(context.Background(), objs[0].SubscriptionID, objs[0].Timestamp, objs[:1]); err != nil {
		t.Fatal(err)
	}
	if got := b.Manager().Cache(objs[0].SubscriptionID).Len(); got != 1 {
		t.Errorf("cache has %d objects after duplicate push, want 1", got)
	}
}

func TestPushModelUnknownSubscription(t *testing.T) {
	env := newPushEnv(t, core.LSC{}, 1<<20)
	err := env.broker.HandleNotificationContext(context.Background(), "ghost", time.Second, []bdms.ResultObject{{ID: "x", Timestamp: time.Second}})
	if err == nil {
		t.Error("push for unknown subscription should fail")
	}
}

func TestPushModelBackfillsGaps(t *testing.T) {
	env := newPushEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 1)
	bsID := cacheIDOf(t, b)
	// Simulate a dropped push: produce a result the broker never saw,
	// then push a newer one directly.
	env.clk.Advance(time.Second)
	if _, err := env.cluster.Ingest("EmergencyReports", map[string]any{"etype": "x"}); err != nil {
		t.Fatal(err)
	}
	// (etype "x" does not match, so craft the gap via direct results.)
	env.publishWithoutNotify(t, "fire", 2)
	env.publish(t, "fire", 3)
	ret, err := b.RetrieveContext(context.Background(), "alice", fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 3 {
		t.Fatalf("got %d results, want 3 (gap back-filled)", len(ret.Items))
	}
	_ = bsID
}

// TestPushedBatchIngestsOnce: a coalesced webhook batch (Results array)
// lands in the cache with one call — every object cached, the backend
// marker advanced to the batch's newest timestamp, and a redelivered batch
// ignored as a duplicate.
func TestPushedBatchIngestsOnce(t *testing.T) {
	env := newPushEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	bsID := cacheIDOf(t, b)
	batch := []bdms.ResultObject{
		// Deliberately out of order: the handler must sort before caching.
		{ID: "r2", SubscriptionID: bsID, Timestamp: 2 * time.Second, Size: 10},
		{ID: "r1", SubscriptionID: bsID, Timestamp: 1 * time.Second, Size: 10},
		{ID: "r3", SubscriptionID: bsID, Timestamp: 3 * time.Second, Size: 10},
	}
	if err := b.HandleNotificationContext(context.Background(), bsID, 3*time.Second, batch); err != nil {
		t.Fatal(err)
	}
	// Redelivery of the same batch (at-least-once webhooks) is a no-op.
	if err := b.HandleNotificationContext(context.Background(), bsID, 3*time.Second, batch); err != nil {
		t.Fatal(err)
	}
	if got := b.Manager().Cache(bsID).Len(); got != 3 {
		t.Errorf("cache has %d objects after duplicate batch, want 3", got)
	}
	ret, err := b.RetrieveContext(context.Background(), "alice", fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 3 || ret.Items[0].ID != "r1" || ret.Items[2].ID != "r3" {
		t.Fatalf("items = %+v, want r1..r3 oldest first", ret.Items)
	}
	if ret.Latest != 3*time.Second {
		t.Errorf("latest = %v, want 3s", ret.Latest)
	}
	if err := b.Ack("alice", fs, ret.Latest); err != nil {
		t.Fatal(err)
	}
	// Pushed batches must not trigger fetches: the batch itself carried
	// everything.
	if got := b.Stats().FetchBytes.Value(); got != 0 {
		t.Errorf("fetch bytes = %v, want 0", got)
	}
}

// publishWithoutNotify produces a matching publication whose push delivery
// is "lost" (the notifier is bypassed by swapping it out temporarily).
func (env *testEnv) publishWithoutNotify(t *testing.T, etype string, sev float64) {
	t.Helper()
	saved := env.broker
	env.broker = nil // pushAdapter drops deliveries
	env.publish(t, etype, sev)
	env.broker = saved
}

// cacheIDOf extracts the single backend subscription id.
func cacheIDOf(t *testing.T, b *Broker) string {
	t.Helper()
	infos := b.Manager().CacheInfos()
	if len(infos) != 1 {
		t.Fatalf("expected 1 cache, got %d", len(infos))
	}
	return infos[0].ID
}
