package broker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
)

// testClock is a controllable shared clock.
type testClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *testClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// testEnv wires an in-process cluster directly to a broker: the cluster's
// notifier invokes the broker's notification handler synchronously.
type testEnv struct {
	clk     *testClock
	cluster *bdms.Cluster
	broker  *Broker
}

func newTestEnv(t testing.TB, policy core.Policy, budget int64) *testEnv {
	t.Helper()
	env := &testEnv{clk: &testClock{}}
	env.cluster = bdms.NewCluster(
		bdms.WithClock(env.clk.Now),
		bdms.WithNotifier(bdms.NotifierFunc(func(ctx context.Context, subID, _ string, latest time.Duration) {
			if env.broker != nil {
				_ = env.broker.HandleNotificationContext(ctx, subID, latest, nil)
			}
		})),
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
		ID:          "broker-1",
		Backend:     env.cluster,
		Policy:      policy,
		CacheBudget: budget,
		Clock:       env.clk.Now,
		TTL:         core.TTLConfig{DefaultTTL: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.broker = b
	return env
}

func (env *testEnv) publish(t testing.TB, etype string, sev float64) {
	t.Helper()
	env.clk.Advance(time.Second)
	_, err := env.cluster.Ingest("EmergencyReports", map[string]any{
		"etype": etype, "severity": sev,
		"location": map[string]any{"lat": 33.0, "lon": -117.0},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := New(Config{ID: "b"}); err == nil {
		t.Error("missing backend should fail")
	}
	if _, err := New(Config{ID: "b", Backend: bdms.NewCluster()}); err == nil {
		t.Error("missing policy should fail")
	}
}

func TestSubscriptionSuppression(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	fs1, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := b.Subscribe("bob", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	fs3, err := b.Subscribe("carol", "Alerts", []any{"flood"})
	if err != nil {
		t.Fatal(err)
	}
	if fs1 == fs2 || fs2 == fs3 {
		t.Error("frontend subscription ids must be distinct")
	}
	if got := b.NumFrontendSubs(); got != 3 {
		t.Errorf("frontend subs = %d, want 3", got)
	}
	if got := b.NumBackendSubs(); got != 2 {
		t.Errorf("backend subs = %d, want 2 (fire shared)", got)
	}
	if got := env.cluster.NumSubscriptions(); got != 2 {
		t.Errorf("cluster subs = %d, want 2", got)
	}
	if got := b.NumSubscribers(); got != 3 {
		t.Errorf("subscribers = %d, want 3", got)
	}
}

func TestResubscribeIsIdempotent(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	fs1, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	if fs1 != fs2 {
		t.Errorf("re-subscribe returned %s, want existing %s", fs2, fs1)
	}
	if env.broker.NumFrontendSubs() != 1 {
		t.Error("duplicate subscription must not be created")
	}
}

func TestNotificationPullCacheAndRetrieve(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	env.publish(t, "flood", 2) // does not match
	env.publish(t, "fire", 5)

	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 2 {
		t.Fatalf("got %d results, want 2", len(ret.Items))
	}
	for _, it := range ret.Items {
		if !it.FromCache {
			t.Errorf("result %s should come from the cache", it.ID)
		}
		if rows := rowsOf(t, it); len(rows) != 1 || rows[0]["etype"] != "fire" {
			t.Errorf("rows = %s", it.Rows)
		}
	}
	if ret.Latest == 0 {
		t.Error("latest marker should be set")
	}
	if got := b.Stats().HitRatio(); got != 1 {
		t.Errorf("hit ratio = %v, want 1", got)
	}
	if b.Stats().VolumeBytes.Value() <= 0 {
		t.Error("volume bytes should account the base pull")
	}
}

// rowsOf decodes a retrieved item's rows, as the subscriber does.
func rowsOf(t *testing.T, it Item) []map[string]any {
	t.Helper()
	var rows []map[string]any
	if err := json.Unmarshal(it.Rows, &rows); err != nil {
		t.Fatalf("item %s rows %q: %v", it.ID, it.Rows, err)
	}
	return rows
}

// TestAckAdvancesMarker: the ack a retrieval carries moves the marker
// before its GETRESULTS — never backwards, never past bts.
func TestAckAdvancesMarker(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil || len(ret.Items) != 1 {
		t.Fatalf("items=%v err=%v", ret.Items, err)
	}
	latest := ret.Latest
	marker := func() time.Duration {
		t.Helper()
		m, err := b.Marker("alice", fs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := marker(); m != 0 {
		t.Errorf("marker before any ack = %v, want 0", m)
	}
	// Carrying the ack, the same range yields nothing.
	for _, ack := range []time.Duration{
		latest,
		latest + time.Hour, // beyond bts: clamps
		0,                  // backwards: ignored
	} {
		ret, err = b.RetrieveContext(context.Background(), "alice", fs, ack)
		if err != nil {
			t.Fatal(err)
		}
		if len(ret.Items) != 0 {
			t.Errorf("retrieval carrying ack %v returned %d items", ack, len(ret.Items))
		}
		if m := marker(); m != latest {
			t.Errorf("marker after ack %v = %v, want %v", ack, m, latest)
		}
	}
}

func TestLateJoinerOnlySeesNewResults(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	if _, err := b.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	// Bob joins the same shared backend subscription afterwards.
	fsBob, err := b.Subscribe("bob", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := b.RetrieveContext(context.Background(), "bob", fsBob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 0 {
		t.Errorf("late joiner got %d pre-join results, want 0", len(ret.Items))
	}
	env.publish(t, "fire", 4)
	ret, err = b.RetrieveContext(context.Background(), "bob", fsBob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 1 {
		t.Errorf("late joiner got %d post-join results, want 1", len(ret.Items))
	}
}

func TestCacheMissRefetchesFromCluster(t *testing.T) {
	// Tiny budget forces evictions; subscriber must still get everything.
	env := newTestEnv(t, core.LSC{}, 200)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		env.publish(t, "fire", float64(i+1))
	}
	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 5 {
		t.Fatalf("got %d results, want all 5 despite evictions", len(ret.Items))
	}
	var fromCache, fetched int
	for _, it := range ret.Items {
		if it.FromCache {
			fromCache++
		} else {
			fetched++
		}
	}
	if fetched == 0 {
		t.Error("with budget 200 some results must be re-fetched")
	}
	if b.Stats().MissBytes.Value() <= 0 {
		t.Error("miss bytes should be accounted")
	}
}

func TestUnsubscribeTearsDownBackendSub(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	fsA, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	fsB, err := b.Subscribe("bob", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("alice", fsA); err != nil {
		t.Fatal(err)
	}
	if got := env.cluster.NumSubscriptions(); got != 1 {
		t.Errorf("backend sub must survive while bob is attached (subs=%d)", got)
	}
	if err := b.Unsubscribe("bob", fsB); err != nil {
		t.Fatal(err)
	}
	if got := env.cluster.NumSubscriptions(); got != 0 {
		t.Errorf("backend sub should be withdrawn, cluster has %d", got)
	}
	if b.NumBackendSubs() != 0 || b.NumFrontendSubs() != 0 {
		t.Error("broker tables should be empty")
	}
}

func TestUnsubscribeValidation(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	fs, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.broker.Unsubscribe("mallory", fs); err == nil {
		t.Error("unsubscribing someone else's subscription should fail")
	}
	if err := env.broker.Unsubscribe("alice", "nope"); err == nil {
		t.Error("unknown fs should fail")
	}
}

func TestGetResultsValidation(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	if _, err := env.broker.RetrieveContext(context.Background(), "alice", "nope", 0); err == nil {
		t.Error("unknown fs should fail")
	}
	// A negative ack is refused before anything is retrieved or consumed.
	fs, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	if _, err := env.broker.RetrieveContext(context.Background(), "alice", fs, -1); !errors.Is(err, errNegativeAck) {
		t.Errorf("negative ack: %v, want errNegativeAck", err)
	}
	if got := env.broker.Stats().Requests.Value(); got != 0 {
		t.Errorf("objects requested from the cache = %v, want 0", got)
	}
	if ret, err := env.broker.RetrieveContext(context.Background(), "alice", fs, 0); err != nil || len(ret.Items) != 1 {
		t.Errorf("retrieval after the refused one = %v, %v; want the result", ret.Items, err)
	}
}

func TestNCPolicyFetchesEverythingFromCluster(t *testing.T) {
	env := newTestEnv(t, core.NC{}, 0)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	env.publish(t, "fire", 4)
	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 2 {
		t.Fatalf("got %d results, want 2", len(ret.Items))
	}
	for _, it := range ret.Items {
		if it.FromCache {
			t.Error("NC must serve everything from the cluster")
		}
	}
	if b.Stats().VolumeBytes.Value() != 0 {
		t.Error("NC broker must not pull on notification")
	}
	if b.Stats().HitRatio() != 0 {
		t.Error("NC hit ratio must be 0")
	}
}

func TestStaleNotificationIgnored(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	if _, err := b.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	// Replay an old notification; must be a no-op.
	for _, bsInfo := range b.Manager().CacheInfos() {
		if err := b.HandleNotificationContext(context.Background(), bsInfo.ID, time.Nanosecond, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.HandleNotificationContext(context.Background(), "unknown-sub", time.Hour, nil); err == nil {
		t.Error("notification for unknown subscription should fail")
	}
}

func TestTTLPolicyExpiryThroughBroker(t *testing.T) {
	env := newTestEnv(t, core.TTL{}, 1<<20)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	// Override is not possible post-construction; DefaultTTL is 1h from
	// newTestEnv, so advance beyond it.
	env.publish(t, "fire", 3)
	env.clk.Advance(2 * time.Hour)
	if n := b.ExpireDue(); n != 1 {
		t.Errorf("expired %d objects, want 1", n)
	}
	// Expired object must still be retrievable from the cluster.
	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 1 || ret.Items[0].FromCache {
		t.Errorf("expired result should be re-fetched: %+v", ret.Items)
	}
	b.DriveTTL() // smoke: recompute + expire path
}

func TestConcurrentSubscribeSameKey(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Subscribe(fmt.Sprintf("sub-%d", i), "Alerts", []any{"fire"}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := b.NumBackendSubs(); got != 1 {
		t.Errorf("backend subs = %d, want 1 (suppressed)", got)
	}
	if got := env.cluster.NumSubscriptions(); got != 1 {
		t.Errorf("cluster subs = %d, want 1 (race duplicates withdrawn)", got)
	}
}

func TestFrontendSubscriptionsListing(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	if _, err := b.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("alice", "Alerts", []any{"flood"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("bob", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	if got := b.FrontendSubscriptions("alice"); len(got) != 2 {
		t.Errorf("alice subs = %v", got)
	}
	if got := b.FrontendSubscriptions("ghost"); len(got) != 0 {
		t.Errorf("ghost subs = %v", got)
	}
}

func TestFetchLatencyModel(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	b := env.broker
	// 500ms RTT + size/10MBps transfer.
	if got := b.fetchLatency(0); got != 500*time.Millisecond {
		t.Errorf("latency(0) = %v", got)
	}
	if got := b.fetchLatency(10 << 20); got != 1500*time.Millisecond {
		t.Errorf("latency(10MB) = %v, want 1.5s", got)
	}
}

func TestGetResultsPartialFetchError(t *testing.T) {
	// Force evictions, then make the backend unreachable: the subscriber
	// still gets the cached suffix plus the error.
	env := newTestEnv(t, core.LSC{}, 200)
	b := env.broker
	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		env.publish(t, "fire", float64(i+1))
	}
	// Detach the backend by swapping in a failing one.
	b.backend = failingBackend{}
	ret, err := b.RetrieveContext(context.Background(), "alice", fs, 0)
	if err == nil {
		t.Fatal("backend failure should surface")
	}
	if len(ret.Items) == 0 {
		t.Error("cached results should still be returned alongside the error")
	}
}

// failingBackend errors on every call.
type failingBackend struct{}

func (failingBackend) Subscribe(string, []any, string) (string, error) {
	return "", fmt.Errorf("backend down")
}
func (failingBackend) Unsubscribe(string) error { return fmt.Errorf("backend down") }
func (failingBackend) ResultsContext(context.Context, string, time.Duration, time.Duration, bool) ([]bdms.ResultObject, error) {
	return nil, fmt.Errorf("backend down")
}
func (failingBackend) LatestTimestamp(string) (time.Duration, error) {
	return 0, fmt.Errorf("backend down")
}

func TestSubscribeBackendFailure(t *testing.T) {
	b, err := New(Config{
		ID:      "b",
		Backend: failingBackend{},
		Policy:  core.LSC{}, CacheBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("alice", "Alerts", []any{"fire"}); err == nil {
		t.Error("backend subscribe failure should surface")
	}
	if b.NumFrontendSubs() != 0 || b.NumBackendSubs() != 0 {
		t.Error("failed subscribe must not leave state behind")
	}
}
