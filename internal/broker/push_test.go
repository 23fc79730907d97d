package broker

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/faults"
)

// newPushEnv wires an in-process cluster to a broker through a notifier
// that carries pushes, so the cluster's default PUSH model applies.
func newPushEnv(t *testing.T, policy core.Policy, budget int64) *testEnv {
	t.Helper()
	env := &testEnv{clk: &testClock{}}
	env.cluster = bdms.NewCluster(
		bdms.WithClock(env.clk.Now),
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

// stamp returns a copy of objs stamped as the cluster stamps a
// subscription's results: in timestamp order each names the one before it
// as its predecessor (prev_ns), and the oldest names prev — 0 when it is
// the subscription's first result. The copy keeps objs' order.
func stamp(prev time.Duration, objs []bdms.ResultObject) []bdms.ResultObject {
	ts := make([]time.Duration, len(objs))
	for i, o := range objs {
		ts[i] = o.Timestamp
	}
	slices.Sort(ts)
	out := slices.Clone(objs)
	for i := range out {
		k, _ := slices.BinarySearch(ts, out[i].Timestamp)
		out[i].PrevNS = int64(prev)
		if k > 0 {
			out[i].PrevNS = int64(ts[k-1])
		}
	}
	return out
}

// TestPushModelCachesWithoutFetching: the cluster's pushes name their
// predecessors, and the subscription's first result names none, so nothing
// is asked of the cluster at all.
func TestPushModelCachesWithoutFetching(t *testing.T) {
	env := newPushEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	counted := faults.Count(b.backend)
	b.backend = counted
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	env.publish(t, "fire", 4)
	env.publish(t, "fire", 5)
	if got := counted.ResultFetches(); got != 0 {
		t.Errorf("backend pulls = %d, want 0", got)
	}

	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 3 {
		t.Fatalf("got %d results, want 3", len(ret.Items))
	}
	for _, it := range ret.Items {
		if !it.FromCache {
			t.Error("pushed results should be cached")
		}
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
	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 3 {
		t.Fatalf("got %d results, want 3 (gap back-filled)", len(ret.Items))
	}
	_ = bsID
}

// TestPushAboveResumeTokenPullsGapOnce: a backend subscription created for
// a resuming subscriber starts its marker at the token, below results this
// broker never saw. While its backfill has not landed, a push above that
// marker cannot prove the range below it: the broker pulls the gap, once,
// and the subscriber gets everything past its token.
func TestPushAboveResumeTokenPullsGapOnce(t *testing.T) {
	env := newPushEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	// Another broker's subscription keeps the result dataset at the cluster.
	if _, err := env.cluster.Subscribe("Alerts", []any{"fire"}, ""); err != nil {
		t.Fatal(err)
	}
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 1)
	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil || len(ret.Items) != 1 {
		t.Fatalf("first retrieval = %+v, %v", ret, err)
	}
	token := ret.Latest
	env.publish(t, "fire", 2)
	if err := b.Unsubscribe("alice", fs); err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3) // while alice is gone

	// The resume's backfill fails, so the marker stays at the token.
	counted := faults.Count(b.backend)
	b.backend = faults.WrapBackend(faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Target: "cluster.results", Kind: faults.KindError, FromCall: 1, ToCall: 1},
	}}), "cluster", counted)
	if fs, err = b.SubscribeResume(context.Background(), "alice", "Alerts", []any{"fire"}, token); err != nil {
		t.Fatal(err)
	}
	if got := counted.ResultFetches(); got != 0 {
		t.Fatalf("backfill reached the cluster %d times, want its one call refused", got)
	}
	env.publish(t, "fire", 4) // pushed naming result 3, above the marker
	if got := counted.ResultFetches(); got != 1 {
		t.Errorf("backend pulls = %d, want 1: the gap below the push", got)
	}
	ret, err = b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sevs []float64
	for _, it := range ret.Items {
		var rows []map[string]any
		if err := json.Unmarshal(it.Rows, &rows); err != nil {
			t.Fatal(err)
		}
		sev, _ := rows[0]["severity"].(float64)
		sevs = append(sevs, sev)
		if !it.FromCache {
			t.Errorf("%s not served from the cache", it.ID)
		}
	}
	if !reflect.DeepEqual(sevs, []float64{2, 3, 4}) {
		t.Errorf("resumed retrieval = severities %v, want [2 3 4]", sevs)
	}
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
	batch := stamp(0, []bdms.ResultObject{
		// Deliberately out of order: the handler must sort before caching.
		{ID: "r2", SubscriptionID: bsID, Timestamp: 2 * time.Second, Size: 10},
		{ID: "r1", SubscriptionID: bsID, Timestamp: 1 * time.Second, Size: 10},
		{ID: "r3", SubscriptionID: bsID, Timestamp: 3 * time.Second, Size: 10},
	})
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
	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 3 || ret.Items[0].ID != "r1" || ret.Items[2].ID != "r3" {
		t.Fatalf("items = %+v, want r1..r3 oldest first", ret.Items)
	}
	if ret.Latest != 3*time.Second {
		t.Errorf("latest = %v, want 3s", ret.Latest)
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

// TestChainCover: what a pushed entry proves, case by case — the run of
// objects each naming the one before it, and the predecessor its oldest
// names (0: the subscription's first result).
func TestChainCover(t *testing.T) {
	obj := func(ts, prev int64) bdms.ResultObject {
		return bdms.ResultObject{ID: fmt.Sprint(ts), Timestamp: time.Duration(ts), PrevNS: prev}
	}
	for _, c := range []struct {
		name   string
		pushed []bdms.ResultObject
		run    []int64 // timestamps of the run
		cover  time.Duration
	}{
		{"one stamped", []bdms.ResultObject{obj(5, 3)}, []int64{5}, 3},
		{"first result names none", []bdms.ResultObject{obj(1, 0), obj(2, 1)}, []int64{1, 2}, 0},
		{"intact, unsorted", []bdms.ResultObject{obj(7, 5), obj(5, 3), obj(9, 7)}, []int64{5, 7, 9}, 3},
		{"hole in the middle", []bdms.ResultObject{obj(3, 2), obj(4, 3), obj(6, 5), obj(7, 6)}, []int64{6, 7}, 5},
		{"hole below the newest", []bdms.ResultObject{obj(3, 2), obj(6, 5)}, []int64{6}, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := append([]bdms.ResultObject(nil), c.pushed...)
			run, cover := chain(c.pushed)
			var got []int64
			for _, r := range run {
				got = append(got, int64(r.Timestamp))
			}
			if !reflect.DeepEqual(got, c.run) || cover != c.cover {
				t.Errorf("chain = run %v cover %v, want %v and %v", got, cover, c.run, c.cover)
			}
			if !reflect.DeepEqual(c.pushed, before) {
				t.Error("chain reordered its argument")
			}
		})
	}
}
