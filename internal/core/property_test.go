package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"gobad/internal/metrics"
)

// TestDeliveryCompletenessProperty is the system's central invariant: no
// matter the policy, budget or interleaving, every subscriber receives
// every object produced after it subscribed exactly once — caching only
// moves WHERE an object is served from (broker cache vs data cluster),
// never WHETHER it is served. This is the paper's persistence argument:
// "subscribers returning after a long hiatus can still retrieve
// notifications from the bigdata backend".
func TestDeliveryCompletenessProperty(t *testing.T) {
	policies := []Policy{LRU{}, LSC{}, LSCz{}, LSD{}, EXP{}, TTL{}, NC{}}
	f := func(seed int64, budgetK uint8, policyIdx uint8) bool {
		p := policies[int(policyIdx)%len(policies)]
		budget := int64(budgetK%16+1) * 200
		return checkCompleteness(t, seed, budget, p)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func checkCompleteness(t *testing.T, seed int64, budget int64, p Policy) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fetch := newMemFetcher()
	stats := &metrics.CacheStats{}
	m, err := NewManager(Config{
		Policy: p, Budget: budget, Fetcher: fetch, Stats: stats,
		TTL: TTLConfig{DefaultTTL: 40 * time.Second, MinTTL: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		nCaches = 3
		nSubs   = 4
		nSteps  = 120
	)
	type subState struct {
		marker map[string]time.Duration // per-cache fts
		joined map[string]bool
	}
	subs := make([]*subState, nSubs)
	for i := range subs {
		subs[i] = &subState{marker: map[string]time.Duration{}, joined: map[string]bool{}}
	}
	// expected[sub][cache] -> ids owed; got[sub][cache] -> ids received.
	expected := map[string]map[string]bool{}
	got := map[string]map[string]bool{}
	key := func(s, o string) string { return s + "/" + o }

	latest := map[string]time.Duration{} // bts per cache
	now := time.Duration(0)
	objSeq := 0

	for step := 0; step < nSteps; step++ {
		now += time.Duration(rng.Intn(3)+1) * time.Second
		switch rng.Intn(5) {
		case 0: // a subscriber joins a cache
			s := rng.Intn(nSubs)
			cid := fmt.Sprintf("c%d", rng.Intn(nCaches))
			sid := fmt.Sprintf("s%d", s)
			if !subs[s].joined[cid] {
				subs[s].joined[cid] = true
				subs[s].marker[cid] = latest[cid]
				m.Subscribe(cid, sid, now)
			}
		case 1, 2: // a new result object arrives
			cid := fmt.Sprintf("c%d", rng.Intn(nCaches))
			objSeq++
			id := fmt.Sprintf("o%d", objSeq)
			size := int64(rng.Intn(300) + 50)
			tstamp := now
			if tstamp <= latest[cid] {
				tstamp = latest[cid] + time.Millisecond
			}
			fetch.add(cid, &Object{ID: id, Timestamp: tstamp, Size: size})
			o := &Object{ID: id, Timestamp: tstamp, Size: size, FetchLatency: 100 * time.Millisecond}
			if err := m.Put(cid, o, now); err != nil {
				t.Logf("put: %v", err)
				return false
			}
			latest[cid] = tstamp
			// Every currently joined subscriber is owed this object.
			for s := 0; s < nSubs; s++ {
				if subs[s].joined[cid] {
					sid := fmt.Sprintf("s%d", s)
					if expected[sid] == nil {
						expected[sid] = map[string]bool{}
					}
					expected[sid][key(cid, id)] = true
				}
			}
		case 3: // a subscriber retrieves from one cache
			s := rng.Intn(nSubs)
			sid := fmt.Sprintf("s%d", s)
			for cid := range subs[s].joined {
				if rng.Intn(2) == 0 {
					continue
				}
				from := subs[s].marker[cid]
				to := latest[cid]
				objs, _, err := m.Retrieve(context.Background(), cid, sid, from, to, now)
				if err != nil {
					t.Logf("get: %v", err)
					return false
				}
				for _, o := range objs {
					if got[sid] == nil {
						got[sid] = map[string]bool{}
					}
					k := key(cid, o.ID)
					if got[sid][k] {
						t.Logf("duplicate delivery of %s to %s", k, sid)
						return false
					}
					got[sid][k] = true
				}
				subs[s].marker[cid] = to
			}
		case 4: // TTL machinery ticks
			m.RecomputeTTLs(now)
			m.ExpireDue(now)
		}
		// Budget invariant for eviction policies.
		if m.Policy().Evicts() && m.TotalSize() > budget {
			t.Logf("budget violated: %d > %d", m.TotalSize(), budget)
			return false
		}
	}

	// Drain: every subscriber retrieves everything outstanding.
	now += time.Hour
	for s := 0; s < nSubs; s++ {
		sid := fmt.Sprintf("s%d", s)
		for cid := range subs[s].joined {
			from := subs[s].marker[cid]
			to := latest[cid]
			objs, _, err := m.Retrieve(context.Background(), cid, sid, from, to, now)
			if err != nil {
				t.Logf("drain get: %v", err)
				return false
			}
			for _, o := range objs {
				if got[sid] == nil {
					got[sid] = map[string]bool{}
				}
				k := key(cid, o.ID)
				if got[sid][k] {
					t.Logf("duplicate delivery of %s to %s in drain", k, sid)
					return false
				}
				got[sid][k] = true
			}
		}
	}

	// Completeness: got == expected for every subscriber.
	for sid, want := range expected {
		for k := range want {
			if !got[sid][k] {
				t.Logf("policy %s: subscriber %s never received %s", p.Name(), sid, k)
				return false
			}
		}
	}
	for sid, g := range got {
		for k := range g {
			if !expected[sid][k] {
				t.Logf("policy %s: subscriber %s received unexpected %s", p.Name(), sid, k)
				return false
			}
		}
	}
	return true
}

// TestSizeAccountingProperty checks that the manager's running total always
// equals the sum of per-cache sizes, which always equals the sum of cached
// object sizes.
func TestSizeAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fetch := newMemFetcher()
		m, err := NewManager(Config{Policy: LSCz{}, Budget: 2000, Fetcher: fetch})
		if err != nil {
			t.Fatal(err)
		}
		latest := map[string]time.Duration{}
		now := time.Duration(0)
		for i := 0; i < 200; i++ {
			now += time.Second
			cid := fmt.Sprintf("c%d", rng.Intn(4))
			sid := fmt.Sprintf("s%d", rng.Intn(3))
			switch rng.Intn(4) {
			case 0:
				m.Subscribe(cid, sid, now)
			case 1, 2:
				tstamp := latest[cid] + time.Duration(rng.Intn(900)+100)*time.Millisecond
				latest[cid] = tstamp
				o := &Object{ID: fmt.Sprintf("o%d", i), Timestamp: tstamp, Size: int64(rng.Intn(400) + 1)}
				fetch.add(cid, &Object{ID: o.ID, Timestamp: tstamp, Size: o.Size})
				if err := m.Put(cid, o, now); err != nil {
					return false
				}
			case 3:
				if _, _, err := m.Retrieve(context.Background(), cid, sid, 0, latest[cid], now); err != nil {
					return false
				}
			}
			var bySizes, byObjects int64
			for j := 0; j < 4; j++ {
				c := m.Cache(fmt.Sprintf("c%d", j))
				if c == nil {
					continue
				}
				bySizes += c.Size()
				c.ascend(func(o *Object) bool { byObjects += o.Size; return true })
			}
			if bySizes != m.TotalSize() || byObjects != m.TotalSize() {
				t.Logf("size mismatch: caches=%d objects=%d total=%d", bySizes, byObjects, m.TotalSize())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTimestampOrderInvariant checks that cache contents stay strictly
// ordered by timestamp under churn.
func TestTimestampOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fetch := newMemFetcher()
		m, err := NewManager(Config{Policy: LRU{}, Budget: 1500, Fetcher: fetch})
		if err != nil {
			t.Fatal(err)
		}
		m.Subscribe("c", "s", 0)
		var latest time.Duration
		now := time.Duration(0)
		for i := 0; i < 150; i++ {
			now += time.Second
			latest += time.Duration(rng.Intn(500)+1) * time.Millisecond
			o := &Object{ID: fmt.Sprintf("o%d", i), Timestamp: latest, Size: int64(rng.Intn(300) + 1)}
			fetch.add("c", &Object{ID: o.ID, Timestamp: latest, Size: o.Size})
			if err := m.Put("c", o, now); err != nil {
				return false
			}
			if rng.Intn(3) == 0 {
				if _, _, err := m.Retrieve(context.Background(), "c", "s", 0, latest, now); err != nil {
					return false
				}
			}
			c := m.Cache("c")
			prev := time.Duration(-1)
			ok := true
			c.ascend(func(o *Object) bool {
				if o.Timestamp <= prev {
					ok = false
					return false
				}
				prev = o.Timestamp
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
