package broker

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/faults"
)

// warmEnv is the multi-broker warm-handoff fixture: one shared cluster,
// a predecessor broker A receiving live notifications, and per-key result
// history with known timestamps.
type warmEnv struct {
	clk     *testClock
	cluster *bdms.Cluster
	a       *Broker
	keys    []string
	// resumeAt is the per-key resume marker (the timestamp a failed-over
	// subscriber last acked); expect holds every result timestamp after it.
	resumeAt map[string]time.Duration
	expect   map[string][]time.Duration
}

// newWarmEnv publishes rounds results per key through broker A, acking
// after the first round so the resume gap is rounds-1 results wide.
func newWarmEnv(t *testing.T, nKeys, rounds int) *warmEnv {
	t.Helper()
	env := &warmEnv{
		clk:      &testClock{},
		resumeAt: make(map[string]time.Duration),
		expect:   make(map[string][]time.Duration),
	}
	env.cluster = bdms.NewCluster(
		bdms.WithClock(env.clk.Now),
		bdms.WithNotifier(bdms.NotifierFunc(func(ctx context.Context, subID, _ string, latest time.Duration) {
			if env.a != nil {
				_ = env.a.HandleNotificationContext(ctx, subID, latest, nil)
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
	a, err := New(Config{
		ID: "broker-a", Backend: env.cluster, Policy: core.LSC{},
		CacheBudget: 64 << 20, Clock: env.clk.Now,
		TTL: core.TTLConfig{DefaultTTL: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.a = a
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("fire-%03d", i)
		env.keys = append(env.keys, key)
		if _, err := a.Subscribe("holder-"+key, "Alerts", []any{key}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		// One clock tick per round: every key's stream gets one result at
		// this round's timestamp (streams are per-key, so within-round ties
		// never land in the same cache).
		env.clk.Advance(time.Second)
		ts := env.clk.Now()
		for _, key := range env.keys {
			if _, err := env.cluster.Ingest("EmergencyReports", map[string]any{
				"etype": key, "severity": float64(r),
			}); err != nil {
				t.Fatal(err)
			}
			if r == 0 {
				env.resumeAt[key] = ts
			} else {
				env.expect[key] = append(env.expect[key], ts)
			}
		}
	}
	return env
}

// resumeAll fails nSessions subscribers over to broker b (one session per
// stream, concurrently) and verifies every stream is complete and ordered:
// each subscriber sees exactly the results after its resume marker, oldest
// first. It returns the number of result-range fetches b made.
//
// Sessions map 1:1 onto keys: cached results are consumed once every
// subscriber pending at Put time has retrieved them, so a session resuming
// a shared stream behind its co-subscribers is not owed the consumed
// objects — per-session streams are the shape the resume protocol
// guarantees zero loss for.
func (env *warmEnv) resumeAll(t *testing.T, b *Broker, count *faults.CountingBackend, nSessions int) int64 {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, nSessions)
	for s := 0; s < nSessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			key := env.keys[s%len(env.keys)]
			sub := fmt.Sprintf("resumer-%04d", s)
			fs, err := b.SubscribeResume(context.Background(), sub, "Alerts", []any{key}, env.resumeAt[key])
			if err != nil {
				errCh <- fmt.Errorf("%s: %w", sub, err)
				return
			}
			ret, err := b.RetrieveContext(context.Background(), sub, fs, 0)
			if err != nil {
				errCh <- fmt.Errorf("%s retrieve: %w", sub, err)
				return
			}
			want := env.expect[key]
			if len(ret.Items) != len(want) {
				errCh <- fmt.Errorf("%s: %d results, want %d (lost or duplicated)", sub, len(ret.Items), len(want))
				return
			}
			for i, item := range ret.Items {
				if time.Duration(item.TimestampNS) != want[i] {
					errCh <- fmt.Errorf("%s: result %d at %d, want %d (out of order)", sub, i, item.TimestampNS, want[i])
					return
				}
			}
			errCh <- nil
		}(s)
	}
	wg.Wait()
	close(errCh)
	failures := 0
	for err := range errCh {
		if err != nil {
			failures++
			if failures <= 5 {
				t.Error(err)
			}
		}
	}
	if failures > 5 {
		t.Errorf("... and %d more stream failures", failures-5)
	}
	return count.ResultFetches()
}

func newSuccessor(t *testing.T, env *warmEnv, id string) (*Broker, *faults.CountingBackend) {
	t.Helper()
	count := faults.Count(env.cluster)
	b, err := New(Config{
		ID: id, Backend: count, Policy: core.LSC{},
		CacheBudget: 64 << 20, Clock: env.clk.Now,
		TTL: core.TTLConfig{DefaultTTL: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, count
}

// TestBrokerRestartWarmVsCold is the broker half of the restart chaos
// drill: sessions resuming onto a warm successor (cache snapshot handed
// off from the predecessor) must reconstruct every stream with zero loss
// while fetching at most 20% of what a cold successor fetches from the
// cluster. Both counts are logged.
func TestBrokerRestartWarmVsCold(t *testing.T) {
	sessions := 1000
	if testing.Short() {
		sessions = 120
	}
	keys := sessions
	env := newWarmEnv(t, keys, 4)
	snap := env.a.SnapshotCache()
	if len(snap.Entries) != keys {
		t.Fatalf("snapshot has %d entries, want %d", len(snap.Entries), keys)
	}

	warm, warmCount := newSuccessor(t, env, "broker-warm")
	resp := warm.InstallWarmup(context.Background(), snap)
	if resp.Stashed != keys {
		t.Fatalf("warmup intake: %+v, want %d stashed", resp, keys)
	}
	warmFetches := env.resumeAll(t, warm, warmCount, sessions)

	cold, coldCount := newSuccessor(t, env, "broker-cold")
	coldFetches := env.resumeAll(t, cold, coldCount, sessions)

	t.Logf("warm handoff: %d cluster range fetches for %d sessions; cold ablation: %d", warmFetches, sessions, coldFetches)
	if coldFetches == 0 {
		t.Fatal("cold ablation made no fetches; the comparison is vacuous")
	}
	if warmFetches*5 > coldFetches {
		t.Errorf("warm fetches %d exceed 20%% of cold %d", warmFetches, coldFetches)
	}
	if hits := warm.WarmupStats().Hits.Value(); hits != float64(keys) {
		t.Errorf("warmup hits = %v, want %v", hits, keys)
	}
	if misses := cold.WarmupStats().Misses.Value(); misses != float64(keys) {
		t.Errorf("cold broker misses = %v, want %v", misses, keys)
	}
}

// TestSubscribeSingleflight: K concurrent resumes of one key make exactly
// one cluster subscribe — the flight leader's — and no withdrawal churn.
func TestSubscribeSingleflight(t *testing.T) {
	env := newWarmEnv(t, 1, 3)
	b, count := newSuccessor(t, env, "broker-sf")
	const k = 32
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := b.SubscribeResume(context.Background(),
				fmt.Sprintf("s%d", i), "Alerts", []any{env.keys[0]}, env.resumeAt[env.keys[0]])
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := count.Subscribes(); got != 1 {
		t.Errorf("cluster subscribes = %d, want 1", got)
	}
	if got := count.Unsubscribes(); got != 0 {
		t.Errorf("cluster unsubscribes = %d, want 0 (no race withdrawals)", got)
	}
	if got := count.ResultFetches(); got > 1 {
		t.Errorf("result fetches = %d, want <= 1 for one key", got)
	}
	if got := b.NumBackendSubs(); got != 1 {
		t.Errorf("backend subs = %d, want 1", got)
	}
}

// TestInstallWarmupStaleRejected: a snapshot older than the max age is
// dropped wholesale — stale markers must not poison resume state.
func TestInstallWarmupStaleRejected(t *testing.T) {
	env := newWarmEnv(t, 2, 2)
	snap := env.a.SnapshotCache()
	snap.TakenUnixNS = time.Now().Add(-time.Hour).UnixNano()
	b, _ := newSuccessor(t, env, "broker-stale")
	resp := b.InstallWarmup(context.Background(), snap)
	if resp.Dropped != len(snap.Entries) || resp.Applied != 0 || resp.Stashed != 0 {
		t.Errorf("stale snapshot intake = %+v, want all %d dropped", resp, len(snap.Entries))
	}
	if b.WarmStashSize() != 0 {
		t.Errorf("stash size = %d, want 0", b.WarmStashSize())
	}
}

// TestInstallWarmupVersionRejected guards the wire format.
func TestInstallWarmupVersionRejected(t *testing.T) {
	env := newWarmEnv(t, 1, 2)
	snap := env.a.SnapshotCache()
	snap.Version = 99
	b, _ := newSuccessor(t, env, "broker-ver")
	if resp := b.InstallWarmup(context.Background(), snap); resp.Dropped != len(snap.Entries) {
		t.Errorf("unknown version intake = %+v, want all dropped", resp)
	}
}

// TestInstallWarmupAppliesToLiveSubscription: entries whose key already
// has a live backend subscription are applied immediately (not stashed)
// and advance its marker so no backfill is owed.
func TestInstallWarmupAppliesToLiveSubscription(t *testing.T) {
	env := newWarmEnv(t, 1, 3)
	key := env.keys[0]
	snap := env.a.SnapshotCache()

	b, count := newSuccessor(t, env, "broker-live")
	// Subscribe BEFORE the handoff arrives, resuming from the ack marker:
	// this backfills once (cold); the later install must then be a no-op
	// apply that leaves the marker at the cluster head.
	fs, err := b.SubscribeResume(context.Background(), "early", "Alerts", []any{key}, env.resumeAt[key])
	if err != nil {
		t.Fatal(err)
	}
	resp := b.InstallWarmup(context.Background(), snap)
	if resp.Applied != 1 || resp.Stashed != 0 {
		t.Errorf("intake = %+v, want 1 applied", resp)
	}
	ret, err := b.RetrieveContext(context.Background(), "early", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != len(env.expect[key]) {
		t.Errorf("stream has %d results, want %d", len(ret.Items), len(env.expect[key]))
	}
	if fetches := count.ResultFetches(); fetches > 1 {
		t.Errorf("result fetches = %d, want <= 1 (apply must not refetch)", fetches)
	}
}

// TestWarmStoreBudget: the stash refuses entries past its byte budget and
// counts the drop.
func TestWarmStoreBudget(t *testing.T) {
	w := newWarmStore()
	w.maxBytes = 200
	small := bdms.CacheWarmEntry{FabricKey: "k1", Channel: "Alerts"}
	if !w.put(small) {
		t.Fatal("small entry should fit")
	}
	big := bdms.CacheWarmEntry{FabricKey: "k2", Channel: "Alerts",
		Objects: []bdms.ResultObject{{ID: "o1", Size: 10_000}}}
	if w.put(big) {
		t.Error("oversized entry should be refused")
	}
	if _, ok := w.take("k1"); !ok {
		t.Error("small entry lost")
	}
	if w.size() != 0 {
		t.Errorf("stash size = %d, want 0 after take", w.size())
	}
}

// TestSnapshotCacheBudgetBound: the drain snapshot stops at the byte
// budget, hottest keys first.
func TestSnapshotCacheBudgetBound(t *testing.T) {
	env := newWarmEnv(t, 6, 3)
	// Make key 0 hottest: extra attached subscribers.
	for i := 0; i < 3; i++ {
		if _, err := env.a.Subscribe(fmt.Sprintf("extra-%d", i), "Alerts", []any{env.keys[0]}); err != nil {
			t.Fatal(err)
		}
	}
	env.a.warm.maxBytes = 1 // starve the budget: only the first entry fits the check
	snap := env.a.SnapshotCache()
	if len(snap.Entries) != 0 {
		t.Fatalf("budget of 1 byte still shipped %d entries", len(snap.Entries))
	}
	env.a.warm.maxBytes = 1 << 20
	snap = env.a.SnapshotCache()
	if len(snap.Entries) != 6 {
		t.Fatalf("snapshot has %d entries, want 6", len(snap.Entries))
	}
	if snap.Entries[0].Params[0] != env.keys[0] {
		t.Errorf("hottest key %v not first, got %v", env.keys[0], snap.Entries[0].Params[0])
	}
}
