package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// linearVictim is the O(N) reference the lazy victim heap replaced: scan
// every non-empty cache for the minimum (score, id). It survives only here,
// as the heap's oracle.
func linearVictim(m *Manager, now time.Duration) *ResultCache {
	var best *ResultCache
	var bestScore float64
	for _, c := range m.caches {
		if c.n == 0 {
			continue
		}
		s := m.policy.Score(c, now)
		if best == nil || s < bestScore || (s == bestScore && c.id < best.id) {
			best, bestScore = c, s
		}
	}
	return best
}

// TestHeapVictimMatchesLinearScan drives seeded random Subscribe / Put /
// Retrieve / ExpireDue / Unsubscribe sequences under every evicting policy
// and checks, eviction by eviction, that the lazy heap drops the tail of
// exactly the cache the linear scan names.
func TestHeapVictimMatchesLinearScan(t *testing.T) {
	const budget = 2500
	for _, p := range AllPolicies() {
		if !p.Evicts() {
			continue
		}
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, err := NewManager(Config{Policy: p, Budget: budget, Fetcher: newMemFetcher(),
				TTL: TTLConfig{DefaultTTL: 40 * time.Second, MinTTL: time.Second}})
			if err != nil {
				t.Fatal(err)
			}
			latest := map[string]time.Duration{}
			evictions := 0
			for step, now := 0, time.Duration(0); step < 400; step++ {
				now += time.Duration(rng.Intn(3)+1) * time.Second
				cid := fmt.Sprintf("c%02d", rng.Intn(12))
				sid := fmt.Sprintf("s%d", rng.Intn(5))
				switch rng.Intn(8) {
				case 0, 1:
					m.Subscribe(cid, sid, now)
				case 2, 3, 4:
					latest[cid] += time.Duration(rng.Intn(900)+100) * time.Millisecond
					o := &Object{ID: fmt.Sprintf("o%d", step), Timestamp: latest[cid], Size: int64(rng.Intn(400) + 50),
						FetchLatency: time.Duration(rng.Intn(900)+100) * time.Millisecond}
					// Admit with the budget lifted, then evict one object at a
					// time so every victim can be compared with the oracle.
					m.budget = math.MaxInt64
					if err := m.Put(cid, o, now); err != nil {
						t.Fatal(err)
					}
					m.budget = budget
					for m.TotalSize() > budget {
						want := linearVictim(m, now)
						tail := want.tail
						if !m.evictOne(now) || want.tail == tail {
							t.Fatalf("%s seed %d step %d: heap did not evict the tail of %s, the linear scan's minimum",
								p.Name(), seed, step, want.id)
						}
						evictions++
					}
				case 5:
					if _, _, err := m.Retrieve(context.Background(), cid, sid, 0, latest[cid], now); err != nil {
						t.Fatal(err)
					}
				case 6:
					m.RecomputeTTLs(now)
					m.ExpireDue(now)
				case 7:
					m.Unsubscribe(cid, sid, now)
				}
			}
			if evictions == 0 {
				t.Fatalf("%s seed %d: schedule never evicted", p.Name(), seed)
			}
		}
	}
}
