package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gobad/internal/metrics"
)

// memFetcher is a test Fetcher backed by a per-cache list of objects (the
// "data cluster" persistent store).
type memFetcher struct {
	store map[string][]*Object
	calls int
	err   error
}

func newMemFetcher() *memFetcher {
	return &memFetcher{store: make(map[string][]*Object)}
}

func (f *memFetcher) add(cacheID string, o *Object) {
	f.store[cacheID] = append(f.store[cacheID], o)
}

func (f *memFetcher) Fetch(_ context.Context, cacheID string, from, to time.Duration, inclusiveTo bool) ([]*Object, error) {
	f.calls++
	if f.err != nil {
		return nil, f.err
	}
	var out []*Object
	for _, o := range f.store[cacheID] {
		if o.Timestamp > from && (o.Timestamp < to || (inclusiveTo && o.Timestamp == to)) {
			out = append(out, o)
		}
	}
	return out, nil
}

func newTestManager(t *testing.T, p Policy, budget int64) (*Manager, *memFetcher, *metrics.CacheStats) {
	t.Helper()
	f := newMemFetcher()
	stats := &metrics.CacheStats{}
	m, err := NewManager(Config{Policy: p, Budget: budget, Fetcher: f, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	return m, f, stats
}

// putObj inserts an object both into the manager cache and the backing
// store (the data cluster keeps everything).
func putObj(t *testing.T, m *Manager, f *memFetcher, cacheID, id string, at int, size int64, now time.Duration) *Object {
	t.Helper()
	o := &Object{ID: id, Timestamp: ts(at), Size: size, FetchLatency: 500 * time.Millisecond}
	f.add(cacheID, &Object{ID: id, Timestamp: ts(at), Size: size})
	if err := m.Put(cacheID, o, now); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Error("nil policy should fail")
	}
	if _, err := NewManager(Config{Policy: LRU{}, Budget: 0}); err == nil {
		t.Error("zero budget should fail for eviction policy")
	}
	if _, err := NewManager(Config{Policy: NC{}}); err != nil {
		t.Errorf("NC needs no budget: %v", err)
	}
}

func TestSubscribeCreatesCache(t *testing.T) {
	m, _, _ := newTestManager(t, LSC{}, 1<<20)
	m.Subscribe("bs1", "k1", 0)
	c := m.Cache("bs1")
	if c == nil {
		t.Fatal("cache not created")
	}
	if !c.HasSubscriber("k1") || c.Subscribers() != 1 {
		t.Error("subscriber not attached")
	}
	if m.NumCaches() != 1 {
		t.Errorf("NumCaches = %d", m.NumCaches())
	}
}

func TestPutSnapshotsSubscribers(t *testing.T) {
	m, f, _ := newTestManager(t, LSC{}, 1<<20)
	m.Subscribe("bs1", "k1", 0)
	m.Subscribe("bs1", "k2", 0)
	o1 := putObj(t, m, f, "bs1", "o1", 1, 100, ts(1))
	// k3 subscribes after o1 exists: o1 must not be owed to k3.
	m.Subscribe("bs1", "k3", ts(2))
	o2 := putObj(t, m, f, "bs1", "o2", 3, 100, ts(3))
	if o1.PendingSubscribers() != 2 {
		t.Errorf("o1 pending = %d, want 2", o1.PendingSubscribers())
	}
	if o2.PendingSubscribers() != 3 {
		t.Errorf("o2 pending = %d, want 3", o2.PendingSubscribers())
	}
	if o1.AwaitedBy("k3") {
		t.Error("pre-subscription object should not be owed to new subscriber")
	}
}

func TestGetResultsAllCached(t *testing.T) {
	m, f, stats := newTestManager(t, LSC{}, 1<<20)
	m.Subscribe("bs1", "k1", 0)
	putObj(t, m, f, "bs1", "o1", 10, 100, ts(10))
	putObj(t, m, f, "bs1", "o2", 20, 100, ts(20))
	got, _, err := m.Retrieve(context.Background(), "bs1", "k1", ts(0), ts(20), ts(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "o1" || got[1].ID != "o2" {
		t.Fatalf("got %v", ids(got))
	}
	if f.calls != 0 {
		t.Errorf("fetcher called %d times, want 0", f.calls)
	}
	if stats.HitRatio() != 1 {
		t.Errorf("hit ratio = %v, want 1", stats.HitRatio())
	}
	if stats.HitBytes.Value() != 200 {
		t.Errorf("hit bytes = %v, want 200", stats.HitBytes.Value())
	}
}

func ids(objs []*Object) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.ID
	}
	return out
}

func TestGetResultsConsumesDrainedObjects(t *testing.T) {
	m, f, stats := newTestManager(t, LSC{}, 1<<20)
	m.Subscribe("bs1", "k1", 0)
	m.Subscribe("bs1", "k2", 0)
	putObj(t, m, f, "bs1", "o1", 10, 100, ts(10))
	if _, _, err := m.Retrieve(context.Background(), "bs1", "k1", ts(0), ts(10), ts(11)); err != nil {
		t.Fatal(err)
	}
	if m.Cache("bs1").Len() != 1 {
		t.Fatal("object should remain: k2 has not retrieved it")
	}
	if _, _, err := m.Retrieve(context.Background(), "bs1", "k2", ts(0), ts(10), ts(12)); err != nil {
		t.Fatal(err)
	}
	if m.Cache("bs1").Len() != 0 {
		t.Error("object should be consumed after all subscribers retrieved it")
	}
	if stats.Consumed.Value() != 1 {
		t.Errorf("consumed = %v, want 1", stats.Consumed.Value())
	}
	if got := stats.HoldingTime.Mean(); got != 2 {
		t.Errorf("holding time = %v, want 2s", got)
	}
}

func TestGetResultsPartialMiss(t *testing.T) {
	m, f, stats := newTestManager(t, LSC{}, 250)
	m.Subscribe("bs1", "k1", 0)
	// Three 100-byte objects; budget 250 evicts the oldest.
	putObj(t, m, f, "bs1", "o1", 10, 100, ts(10))
	putObj(t, m, f, "bs1", "o2", 20, 100, ts(20))
	putObj(t, m, f, "bs1", "o3", 30, 100, ts(30))
	c := m.Cache("bs1")
	if c.Len() != 2 || c.Tail().ID != "o2" {
		t.Fatalf("expected o1 evicted; tail=%v len=%d", c.Tail().ID, c.Len())
	}
	// Request everything: o1 must come from the fetcher, o2/o3 from cache.
	got, _, err := m.Retrieve(context.Background(), "bs1", "k1", ts(0), ts(30), ts(31))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != "o1" || got[1].ID != "o2" || got[2].ID != "o3" {
		t.Fatalf("got %v, want [o1 o2 o3]", ids(got))
	}
	if f.calls != 1 {
		t.Errorf("fetcher calls = %d, want 1", f.calls)
	}
	if stats.Hits.Value() != 2 || stats.Requests.Value() != 3 {
		t.Errorf("hits/requests = %v/%v, want 2/3", stats.Hits.Value(), stats.Requests.Value())
	}
	if stats.MissBytes.Value() != 100 {
		t.Errorf("miss bytes = %v, want 100", stats.MissBytes.Value())
	}
}

func TestGetResultsAllMissed(t *testing.T) {
	m, f, stats := newTestManager(t, LSC{}, 150)
	m.Subscribe("bs1", "k1", 0)
	putObj(t, m, f, "bs1", "o1", 10, 100, ts(10))
	putObj(t, m, f, "bs1", "o2", 20, 100, ts(20)) // evicts o1
	putObj(t, m, f, "bs1", "o3", 30, 100, ts(30)) // evicts o2
	// Request only the old range (0, 20]: everything missed.
	got, _, err := m.Retrieve(context.Background(), "bs1", "k1", ts(0), ts(20), ts(31))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "o1" || got[1].ID != "o2" {
		t.Fatalf("got %v, want [o1 o2]", ids(got))
	}
	if stats.Hits.Value() != 0 {
		t.Errorf("hits = %v, want 0", stats.Hits.Value())
	}
}

func TestGetResultsMissedNotRecached(t *testing.T) {
	m, f, _ := newTestManager(t, LSC{}, 250)
	m.Subscribe("bs1", "k1", 0)
	putObj(t, m, f, "bs1", "o1", 10, 100, ts(10))
	putObj(t, m, f, "bs1", "o2", 20, 100, ts(20))
	putObj(t, m, f, "bs1", "o3", 30, 100, ts(30)) // evicts o1
	before := m.Cache("bs1").Len()
	if _, _, err := m.Retrieve(context.Background(), "bs1", "k1", ts(0), ts(30), ts(31)); err != nil {
		t.Fatal(err)
	}
	if got := m.Cache("bs1").Len(); got > before {
		t.Errorf("missed objects must not be re-cached: len %d -> %d", before, got)
	}
}

func TestGetResultsEmptyRange(t *testing.T) {
	m, _, _ := newTestManager(t, LSC{}, 1<<20)
	got, _, err := m.Retrieve(context.Background(), "bs1", "k1", ts(10), ts(10), ts(11))
	if err != nil || got != nil {
		t.Errorf("empty range should return nil, nil; got %v, %v", got, err)
	}
	got, _, err = m.Retrieve(context.Background(), "bs1", "k1", ts(10), ts(5), ts(11))
	if err != nil || got != nil {
		t.Errorf("inverted range should return nil, nil; got %v, %v", got, err)
	}
}

func TestGetResultsNoCacheNoFetcher(t *testing.T) {
	m, err := NewManager(Config{Policy: LSC{}, Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Retrieve(context.Background(), "bs1", "k1", 0, ts(10), ts(11)); !errors.Is(err, ErrNoFetcher) {
		t.Errorf("err = %v, want ErrNoFetcher", err)
	}
}

func TestGetResultsFetcherError(t *testing.T) {
	m, f, _ := newTestManager(t, LSC{}, 1<<20)
	f.err = errors.New("backend down")
	if _, _, err := m.Retrieve(context.Background(), "bs1", "k1", 0, ts(10), ts(11)); err == nil {
		t.Error("fetch error should propagate")
	}
}

func TestEvictionUsesPolicyOrder(t *testing.T) {
	// Two caches; LSC must evict from the one whose tail has fewer
	// pending subscribers.
	m, f, stats := newTestManager(t, LSC{}, 250)
	m.Subscribe("popular", "k1", 0)
	m.Subscribe("popular", "k2", 0)
	m.Subscribe("popular", "k3", 0)
	m.Subscribe("rare", "k4", 0)
	putObj(t, m, f, "popular", "p1", 10, 100, ts(10))
	putObj(t, m, f, "rare", "r1", 11, 100, ts(11))
	putObj(t, m, f, "popular", "p2", 20, 100, ts(20)) // total 300 > 250
	if m.Cache("rare").Len() != 0 {
		t.Error("LSC should evict the rare cache's tail (f=1) first")
	}
	if m.Cache("popular").Len() != 2 {
		t.Error("popular cache should be intact")
	}
	if stats.Evictions.Value() != 1 {
		t.Errorf("evictions = %v, want 1", stats.Evictions.Value())
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	m, f, _ := newTestManager(t, LRU{}, 250)
	m.Subscribe("a", "k1", 0)
	m.Subscribe("b", "k2", 0)
	putObj(t, m, f, "a", "a1", 10, 100, ts(10))
	putObj(t, m, f, "b", "b1", 20, 100, ts(20))
	// Access cache "a" making "b" least recently used.
	if _, _, err := m.Retrieve(context.Background(), "a", "k1", ts(0), ts(10), ts(30)); err != nil {
		t.Fatal(err)
	}
	// a1 was consumed by that retrieval (only subscriber) - re-add.
	putObj(t, m, f, "a", "a2", 40, 100, ts(40))
	putObj(t, m, f, "a", "a3", 50, 100, ts(50)) // total 300 > 250: evict from b
	if m.Cache("b").Len() != 0 {
		t.Error("LRU should evict from the least recently accessed cache (b)")
	}
}

func TestEvictionOversizedObjectDropsItself(t *testing.T) {
	m, f, _ := newTestManager(t, LSC{}, 100)
	m.Subscribe("bs", "k", 0)
	putObj(t, m, f, "bs", "big", 10, 500, ts(10))
	if m.TotalSize() != 0 {
		t.Errorf("oversized object should be evicted immediately, total=%d", m.TotalSize())
	}
}

func TestTotalSizeTracksAcrossCaches(t *testing.T) {
	m, f, _ := newTestManager(t, LSC{}, 1<<20)
	m.Subscribe("a", "k1", 0)
	m.Subscribe("b", "k2", 0)
	putObj(t, m, f, "a", "a1", 10, 111, ts(10))
	putObj(t, m, f, "b", "b1", 20, 222, ts(20))
	if m.TotalSize() != 333 {
		t.Errorf("TotalSize = %d, want 333", m.TotalSize())
	}
}

func TestUnsubscribeConsumesObjects(t *testing.T) {
	m, f, stats := newTestManager(t, LSC{}, 1<<20)
	m.Subscribe("bs", "k1", 0)
	m.Subscribe("bs", "k2", 0)
	putObj(t, m, f, "bs", "o1", 10, 100, ts(10))
	// k1 retrieves o1; k2 unsubscribes -> o1 drained -> consumed.
	if _, _, err := m.Retrieve(context.Background(), "bs", "k1", ts(0), ts(10), ts(11)); err != nil {
		t.Fatal(err)
	}
	m.Unsubscribe("bs", "k2", ts(12))
	if m.Cache("bs").Len() != 0 {
		t.Error("object should be consumed after last owing subscriber left")
	}
	if m.Cache("bs").Subscribers() != 1 {
		t.Errorf("subscribers = %d, want 1", m.Cache("bs").Subscribers())
	}
	if stats.Consumed.Value() != 1 {
		t.Errorf("consumed = %v", stats.Consumed.Value())
	}
}

func TestUnsubscribeUnknownCacheIsNoop(t *testing.T) {
	m, _, _ := newTestManager(t, LSC{}, 1<<20)
	m.Unsubscribe("nope", "k", 0) // must not panic
}

func TestDropCache(t *testing.T) {
	m, f, _ := newTestManager(t, LSC{}, 1<<20)
	m.Subscribe("bs", "k1", 0)
	putObj(t, m, f, "bs", "o1", 10, 100, ts(10))
	putObj(t, m, f, "bs", "o2", 20, 100, ts(20))
	m.DropCache("bs", ts(30))
	if m.Cache("bs") != nil || m.TotalSize() != 0 || m.NumCaches() != 0 {
		t.Error("DropCache should remove everything")
	}
	m.DropCache("bs", ts(31)) // idempotent
}

func TestNCPolicyNeverCaches(t *testing.T) {
	m, f, stats := newTestManager(t, NC{}, 0)
	m.Subscribe("bs", "k1", 0)
	o := &Object{ID: "o1", Timestamp: ts(10), Size: 100}
	f.add("bs", &Object{ID: "o1", Timestamp: ts(10), Size: 100})
	if err := m.Put("bs", o, ts(10)); err != nil {
		t.Fatal(err)
	}
	if m.TotalSize() != 0 || m.NumCaches() != 0 {
		t.Error("NC must not cache anything")
	}
	got, _, err := m.Retrieve(context.Background(), "bs", "k1", ts(0), ts(10), ts(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "o1" {
		t.Fatalf("got %v", ids(got))
	}
	if stats.Hits.Value() != 0 || stats.MissBytes.Value() != 100 {
		t.Error("NC retrievals must all be misses")
	}
}

func TestPutNilObject(t *testing.T) {
	m, _, _ := newTestManager(t, LSC{}, 100)
	if err := m.Put("bs", nil, 0); err == nil {
		t.Error("nil object should fail")
	}
}

func TestPutOutOfOrderRejected(t *testing.T) {
	m, f, _ := newTestManager(t, LSC{}, 1<<20)
	m.Subscribe("bs", "k", 0)
	putObj(t, m, f, "bs", "o2", 20, 100, ts(20))
	o := &Object{ID: "o1", Timestamp: ts(10), Size: 100}
	if err := m.Put("bs", o, ts(21)); err == nil {
		t.Error("out-of-order Put should fail")
	}
}

func TestCacheSizeStatTracked(t *testing.T) {
	m, f, stats := newTestManager(t, LSC{}, 1<<20)
	m.Subscribe("bs", "k", 0)
	putObj(t, m, f, "bs", "o1", 10, 400, ts(10))
	if got := stats.CacheSize.Max(); got != 400 {
		t.Errorf("max cache size = %v, want 400", got)
	}
}

func TestManyEvictionsStressHeap(t *testing.T) {
	// Hammer the lazy heap with interleaved puts/gets/evictions across
	// many caches and verify the budget invariant throughout.
	m, f, _ := newTestManager(t, LSCz{}, 5000)
	const caches = 20
	for i := 0; i < caches; i++ {
		m.Subscribe(fmt.Sprintf("c%d", i), fmt.Sprintf("k%d", i), 0)
		m.Subscribe(fmt.Sprintf("c%d", i), fmt.Sprintf("k%d+", i), 0)
	}
	now := time.Duration(0)
	for step := 1; step <= 2000; step++ {
		now += time.Second
		id := fmt.Sprintf("c%d", step%caches)
		o := &Object{ID: fmt.Sprintf("o%d", step), Timestamp: now, Size: int64(50 + step%200)}
		f.add(id, o)
		if err := m.Put(id, &Object{ID: o.ID, Timestamp: o.Timestamp, Size: o.Size}, now); err != nil {
			t.Fatal(err)
		}
		if m.TotalSize() > 5000 {
			t.Fatalf("budget violated at step %d: %d > 5000", step, m.TotalSize())
		}
		if step%7 == 0 {
			sub := fmt.Sprintf("k%d", step%caches)
			if _, _, err := m.Retrieve(context.Background(), id, sub, 0, now, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sum int64
	for i := 0; i < caches; i++ {
		if c := m.Cache(fmt.Sprintf("c%d", i)); c != nil {
			sum += c.Size()
		}
	}
	if sum != m.TotalSize() {
		t.Errorf("per-cache sizes sum to %d but TotalSize = %d", sum, m.TotalSize())
	}
}
