package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gobad/internal/metrics"
)

// TestConcurrentShardInvariants hammers Put/GetResults/Subscribe/Unsubscribe
// from 16 goroutines and then checks the table's invariants: the manager-wide
// total never settles above the budget, the total equals the sum of the
// per-cache sizes, and every object a cache still accounts for is
// retrievable (nothing lost between the cache map, the heaps and the byte
// accounting). Run with -race to also exercise the locking.
func TestConcurrentShardInvariants(t *testing.T) {
	const (
		goroutines = 16
		opsPerG    = 400
		objSize    = 256
		budget     = int64(48 << 10) // small enough to force evictions across caches
	)
	m, err := NewManager(Config{
		Policy: LSC{},
		Budget: budget,
		Fetcher: FetcherFunc(func(context.Context, string, time.Duration, time.Duration, bool) ([]*Object, error) {
			return nil, nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, goroutines)
	for g := range ids {
		ids[g] = fmt.Sprintf("bs%02d", g)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine is the only writer of its own cache (pushHead
			// requires strictly increasing timestamps per cache) but reads,
			// subscribes and unsubscribes on a peer's cache.
			own, peer := ids[g], ids[(g+1)%goroutines]
			sub := fmt.Sprintf("sub%02d", g)
			m.Subscribe(own, sub, 0)
			for i := 0; i < opsPerG; i++ {
				now := time.Duration(i+1) * time.Millisecond
				obj := &Object{ID: fmt.Sprintf("o%02d-%d", g, i), Timestamp: now, Size: objSize}
				if err := m.Put(own, obj, now); err != nil {
					t.Errorf("Put(%s): %v", own, err)
					return
				}
				switch i % 5 {
				case 1:
					if _, _, err := m.Retrieve(context.Background(), peer, sub, 0, now, now); err != nil {
						t.Errorf("GetResults(%s): %v", peer, err)
						return
					}
				case 2:
					m.Subscribe(peer, sub, now)
				case 3:
					m.Unsubscribe(peer, sub, now)
				case 4:
					_ = m.TotalSize()
					_, _ = m.NextExpiry()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := m.TotalSize(); got > budget {
		t.Errorf("TotalSize %d exceeds budget %d after quiescence", got, budget)
	}
	infos := m.CacheInfos()
	if len(infos) != goroutines {
		t.Errorf("NumCaches = %d, want %d", len(infos), goroutines)
	}
	var sumBytes int64
	for _, ci := range infos {
		sumBytes += ci.Bytes
	}
	if sumBytes != m.TotalSize() {
		t.Errorf("sum of per-cache bytes %d != total %d", sumBytes, m.TotalSize())
	}
	// Every object still accounted for must be retrievable: a full-range
	// GET by a never-subscribed reader returns exactly the cached objects
	// (evictions only drop tails, so survivors sit above the coverage
	// mark), oldest first.
	end := time.Duration(opsPerG+1) * time.Millisecond
	for _, ci := range infos {
		objs, _, err := m.Retrieve(context.Background(), ci.ID, "checker", 0, end, end)
		if err != nil {
			t.Fatalf("GetResults(%s): %v", ci.ID, err)
		}
		if len(objs) != ci.Objects {
			t.Errorf("cache %s: retrieved %d objects, accounting says %d", ci.ID, len(objs), ci.Objects)
		}
		var bytes int64
		for i, o := range objs {
			bytes += o.Size
			if i > 0 && objs[i-1].Timestamp >= o.Timestamp {
				t.Errorf("cache %s: results out of order at %d", ci.ID, i)
				break
			}
		}
		if bytes != ci.Bytes {
			t.Errorf("cache %s: retrieved %d bytes, accounting says %d", ci.ID, bytes, ci.Bytes)
		}
	}
}

// TestBudgetNeverObservedExceeded races 8 writers (each also retrieving from
// a peer's cache) against a goroutine spinning on TotalSize: under an
// eviction policy neither that reader nor the recorded size metric may ever
// see the cache above its budget — admission and the evictions it forces
// are one critical section, not two.
func TestBudgetNeverObservedExceeded(t *testing.T) {
	const (
		writers = 8
		opsPerW = 2000
		objSize = 256
		budget  = int64(64 * objSize)
	)
	stats := &metrics.CacheStats{}
	m, err := NewManager(Config{Policy: LSC{}, Budget: budget, Stats: stats, Fetcher: nullFetcher})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var worst int64 // the probe's alone until probe.Wait returns
	var probe, wg sync.WaitGroup
	probe.Add(1)
	go func() {
		defer probe.Done()
		for !stop.Load() {
			worst = max(worst, m.TotalSize())
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own, peer := fmt.Sprintf("bs%02d", w), fmt.Sprintf("bs%02d", (w+1)%writers)
			sub := fmt.Sprintf("sub%02d", w)
			m.Subscribe(own, sub, 0)
			m.Subscribe(peer, sub, 0)
			for i := 0; i < opsPerW; i++ {
				now := time.Duration(i+1) * time.Millisecond
				obj := &Object{ID: fmt.Sprintf("o%02d-%d", w, i), Timestamp: now, Size: objSize}
				if err := m.Put(own, obj, now); err != nil {
					t.Errorf("Put(%s): %v", own, err)
					return
				}
				if i%3 == 0 {
					if _, _, err := m.Retrieve(context.Background(), peer, sub, 0, now, now); err != nil {
						t.Errorf("Retrieve(%s): %v", peer, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	probe.Wait()
	if worst > budget {
		t.Errorf("TotalSize read %d, above the budget %d", worst, budget)
	}
	if got := stats.CacheSize.Max(); got > float64(budget) {
		t.Errorf("recorded cache size peaked at %v, above the budget %d", got, budget)
	}
}

// TestSingleflightCoalescesMisses proves that K >= 8 concurrent misses on
// the same (cacheID, range) produce exactly one Fetcher.Fetch call: the
// leader's fetch is shared by every waiter. Requests/MissBytes still count
// per caller (each caller genuinely missed); FetchBytes counts once.
func TestSingleflightCoalescesMisses(t *testing.T) {
	const K = 16
	const objSize = 10
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fetcher := FetcherFunc(func(_ context.Context, id string, from, to time.Duration, inclusiveTo bool) ([]*Object, error) {
		if calls.Add(1) == 1 {
			close(started)
		}
		<-release
		return []*Object{{ID: "x", Timestamp: 5, Size: objSize}}, nil
	})
	stats := &metrics.CacheStats{}
	m, err := NewManager(Config{Policy: NC{}, Fetcher: fetcher, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}

	// Under NC every GetResults goes straight to the fetcher with the
	// identical (from, to, inclusive] range — the coalescing key.
	get := func() ([]*Object, error) {
		objs, _, err := m.Retrieve(context.Background(), "bs0", "sub", 0, 10, 10)
		return objs, err
	}

	var wg sync.WaitGroup
	errs := make([]error, K)
	lens := make([]int, K)
	wg.Add(1)
	go func() { // leader: registers the flight, then blocks in the fetcher
		defer wg.Done()
		objs, err := get()
		lens[0], errs[0] = len(objs), err
	}()
	<-started
	for i := 1; i < K; i++ {
		wg.Add(1)
		go func(i int) { // followers join the in-flight fetch
			defer wg.Done()
			objs, err := get()
			lens[i], errs[i] = len(objs), err
		}(i)
	}
	// Wait until every follower has actually joined the in-flight fetch
	// (the coalesced tally increments as each one registers as a waiter),
	// then let the leader's fetch finish. A follower that arrived after
	// release would start its own fetch and fail the exact-one assertion
	// below; polling the real condition instead of sleeping makes that
	// impossible no matter how slowly the goroutines schedule.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, coalesced := m.FlightStats(); coalesced >= K-1 {
			break
		}
		if time.Now().After(deadline) {
			_, coalesced := m.FlightStats()
			t.Fatalf("only %d of %d followers joined the flight within 5s", coalesced, K-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("Fetcher.Fetch called %d times for %d concurrent identical misses, want exactly 1", got, K)
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if lens[i] != 1 {
			t.Fatalf("caller %d got %d objects, want 1", i, lens[i])
		}
	}
	if got := stats.Requests.Value(); got != K {
		t.Errorf("Requests = %v, want %d (one per coalesced caller)", got, K)
	}
	if got := stats.MissBytes.Value(); got != K*objSize {
		t.Errorf("MissBytes = %v, want %d", got, K*objSize)
	}
	if got := stats.FetchBytes.Value(); got != objSize {
		t.Errorf("FetchBytes = %v, want %d (the single backend fetch)", got, objSize)
	}
}

// TestSingleflightSequentialDoesNotCoalesce pins the single-threaded
// behaviour: back-to-back misses each hit the backend (the flight is
// forgotten once the fetch returns), so the paper's sequential accounting
// is unchanged by the coalescing layer.
func TestSingleflightSequentialDoesNotCoalesce(t *testing.T) {
	var calls atomic.Int32
	fetcher := FetcherFunc(func(context.Context, string, time.Duration, time.Duration, bool) ([]*Object, error) {
		calls.Add(1)
		return nil, nil
	})
	m, err := NewManager(Config{Policy: NC{}, Fetcher: fetcher})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := m.Retrieve(context.Background(), "bs0", "sub", 0, 10, 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("Fetch called %d times for 3 sequential misses, want 3", got)
	}
}
