package core

import (
	"context"
	"errors"
	"testing"

	"gobad/internal/metrics"
)

func newStaleManager(t *testing.T, budget int64) (*Manager, *memFetcher, *metrics.CacheStats) {
	t.Helper()
	f := newMemFetcher()
	stats := &metrics.CacheStats{}
	m, err := NewManager(Config{Policy: LSC{}, Budget: budget, Fetcher: f, Stats: stats, StaleServe: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, f, stats
}

// TestRetrieveStaleServe: with StaleServe on, a failed miss fetch degrades
// to the cached portion — no error — and is marked stale and counted.
func TestRetrieveStaleServe(t *testing.T) {
	m, f, stats := newStaleManager(t, 250)
	m.Subscribe("bs1", "k1", 0)
	// Three 100-byte objects; budget 250 evicts the oldest, so (0, 10]
	// can only come from the (failing) fetcher.
	putObj(t, m, f, "bs1", "o1", 10, 100, ts(10))
	putObj(t, m, f, "bs1", "o2", 20, 100, ts(20))
	putObj(t, m, f, "bs1", "o3", 30, 100, ts(30))
	f.err = errors.New("cluster down")

	got, info, err := m.Retrieve(context.Background(), "bs1", "k1", ts(0), ts(30), ts(31))
	if err != nil {
		t.Fatalf("stale serve must not error: %v", err)
	}
	if !info.Stale || info.FetchErr == nil {
		t.Fatalf("info = %+v, want stale with the fetch error attached", info)
	}
	if len(got) != 2 || got[0].ID != "o2" || got[1].ID != "o3" {
		t.Fatalf("got %v, want the cached [o2 o3]", ids(got))
	}
	if stats.StaleServed.Value() != 1 {
		t.Errorf("stale served = %v, want 1", stats.StaleServed.Value())
	}
	if stats.FetchErrors.Value() != 1 {
		t.Errorf("fetch errors = %v, want 1", stats.FetchErrors.Value())
	}

	// Cluster recovers: the full range is served again, nothing lost. The
	// stale read consumed o2/o3, and its marker of 0 acknowledged nothing,
	// so the recovery read fetches them again with the o1 the failure
	// withheld (at-least-once: the subscriber drops what it already has).
	f.err = nil
	got, info, err = m.Retrieve(context.Background(), "bs1", "k1", ts(0), ts(30), ts(32))
	if err != nil || info.Stale {
		t.Fatalf("recovered retrieve: err=%v info=%+v", err, info)
	}
	if len(got) != 3 || got[0].ID != "o1" || got[2].ID != "o3" {
		t.Fatalf("recovered got %v, want [o1 o2 o3]", ids(got))
	}
}

// TestRetrieveStaleServeOff: the same failure propagates as an error when
// degradation is not enabled, preserving the original contract.
func TestRetrieveStaleServeOff(t *testing.T) {
	m, f, stats := newTestManager(t, LSC{}, 250)
	m.Subscribe("bs1", "k1", 0)
	putObj(t, m, f, "bs1", "o1", 10, 100, ts(10))
	putObj(t, m, f, "bs1", "o2", 20, 100, ts(20))
	putObj(t, m, f, "bs1", "o3", 30, 100, ts(30))
	f.err = errors.New("cluster down")

	got, info, err := m.Retrieve(context.Background(), "bs1", "k1", ts(0), ts(30), ts(31))
	if err == nil {
		t.Fatal("StaleServe off: fetch failure must propagate")
	}
	if info.Stale {
		t.Error("StaleServe off: result must not be marked stale")
	}
	if len(got) != 2 {
		t.Errorf("cached portion should still accompany the error, got %v", ids(got))
	}
	if stats.StaleServed.Value() != 0 {
		t.Errorf("stale served = %v, want 0", stats.StaleServed.Value())
	}
	if stats.FetchErrors.Value() != 1 {
		t.Errorf("fetch errors = %v, want 1", stats.FetchErrors.Value())
	}
}

// TestRetrieveStaleServeEmptyCache: no cache to fall back on means the
// error still propagates, StaleServe or not.
func TestRetrieveStaleServeEmptyCache(t *testing.T) {
	m, f, stats := newStaleManager(t, 250)
	f.err = errors.New("cluster down")
	_, info, err := m.Retrieve(context.Background(), "bs1", "k1", ts(0), ts(30), ts(31))
	if err == nil {
		t.Fatal("nothing cached: fetch failure must propagate")
	}
	if info.Stale {
		t.Error("no stale copy exists, result must not be marked stale")
	}
	if stats.StaleServed.Value() != 0 {
		t.Errorf("stale served = %v, want 0", stats.StaleServed.Value())
	}
}
