package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// nullFetcher never finds anything (pure cache micro-benchmarks).
var nullFetcher = FetcherFunc(func(context.Context, string, time.Duration, time.Duration, bool) ([]*Object, error) {
	return nil, nil
})

func benchManager(b *testing.B, p Policy, budget int64, caches, subsPerCache int) *Manager {
	b.Helper()
	m, err := NewManager(Config{Policy: p, Budget: budget, Fetcher: nullFetcher})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < caches; i++ {
		id := fmt.Sprintf("c%04d", i)
		for s := 0; s < subsPerCache; s++ {
			m.Subscribe(id, fmt.Sprintf("s%d", s), 0)
		}
	}
	return m
}

// BenchmarkPutNoEviction measures admission into an unconstrained cache.
func BenchmarkPutNoEviction(b *testing.B) {
	m := benchManager(b, LSC{}, 1<<40, 64, 4)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		obj := &Object{
			ID:        fmt.Sprintf("o%d", n),
			Timestamp: time.Duration(n+1) * time.Microsecond,
			Size:      1 << 10,
		}
		if err := m.Put(fmt.Sprintf("c%04d", n%64), obj, time.Duration(n)*time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutWithEviction measures the steady-state admission+eviction
// cycle (every Put evicts roughly one tail).
func BenchmarkPutWithEviction(b *testing.B) {
	for _, caches := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("caches=%d", caches), func(b *testing.B) {
			m := benchManager(b, LSCz{}, int64(caches)*4<<10, caches, 4)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				obj := &Object{
					ID:        fmt.Sprintf("o%d", n),
					Timestamp: time.Duration(n+1) * time.Microsecond,
					Size:      8 << 10,
				}
				if err := m.Put(fmt.Sprintf("c%04d", n%caches), obj, time.Duration(n)*time.Microsecond); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGetResultsHit measures a fully cached range retrieval.
func BenchmarkGetResultsHit(b *testing.B) {
	m := benchManager(b, LSC{}, 1<<40, 1, 2)
	const objs = 64
	for i := 0; i < objs; i++ {
		obj := &Object{
			ID:        fmt.Sprintf("o%d", i),
			Timestamp: time.Duration(i+1) * time.Second,
			Size:      1 << 10,
		}
		if err := m.Put("c0000", obj, time.Duration(i)*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// Retrieve the newest object only (the common notification-driven
		// pattern); use a never-matching subscriber so nothing is consumed.
		_, _, err := m.Retrieve(context.Background(), "c0000", "ghost", time.Duration(objs-1)*time.Second,
			time.Duration(objs)*time.Second, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecomputeTTLs measures the eq.-7 recomputation across many
// caches.
func BenchmarkRecomputeTTLs(b *testing.B) {
	for _, caches := range []int{100, 1000} {
		b.Run(fmt.Sprintf("caches=%d", caches), func(b *testing.B) {
			m := benchManager(b, TTL{}, 100<<20, caches, 8)
			for i := 0; i < caches; i++ {
				obj := &Object{
					ID:        fmt.Sprintf("seed%d", i),
					Timestamp: time.Duration(i+1) * time.Millisecond,
					Size:      64 << 10,
				}
				if err := m.Put(fmt.Sprintf("c%04d", i), obj, time.Duration(i)*time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				m.RecomputeTTLs(time.Duration(n) * time.Second)
			}
		})
	}
}

// BenchmarkExpireDue measures TTL expiry sweeps.
func BenchmarkExpireDue(b *testing.B) {
	m := benchManager(b, TTL{}, 1<<40, 256, 2)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		now := time.Duration(n) * time.Hour
		for i := 0; i < 256; i++ {
			obj := &Object{
				ID:        fmt.Sprintf("o%d-%d", n, i),
				Timestamp: now + time.Duration(i+1)*time.Millisecond,
				Size:      1 << 10,
			}
			if err := m.Put(fmt.Sprintf("c%04d", i), obj, now); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		m.ExpireDue(now + 59*time.Minute) // everything expired (default TTL 5m)
	}
}

// BenchmarkManagerGetParallel measures GET throughput with 8 goroutines
// hammering fully cached ranges spread over many caches, all through the
// manager's one mutex.
func BenchmarkManagerGetParallel(b *testing.B) {
	const (
		caches     = 64
		objsPer    = 64
		goroutines = 8
	)
	m, err := NewManager(Config{Policy: LSC{}, Budget: 1 << 40, Fetcher: nullFetcher})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, caches)
	for c := 0; c < caches; c++ {
		ids[c] = fmt.Sprintf("c%04d", c)
		m.Subscribe(ids[c], "pin", 0)
		for i := 0; i < objsPer; i++ {
			obj := &Object{
				ID:        fmt.Sprintf("o%d-%d", c, i),
				Timestamp: time.Duration(i+1) * time.Second,
				Size:      1 << 10,
			}
			if err := m.Put(ids[c], obj, time.Duration(i)*time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
	// RunParallel spawns SetParallelism * GOMAXPROCS goroutines.
	b.SetParallelism((goroutines + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stride the caches differently per goroutine.
		n := int(seq.Add(1)) * 7
		for pb.Next() {
			id := ids[n%caches]
			n++
			// Newest object only: the common notification-driven
			// retrieval. "ghost" never matches, so nothing is
			// consumed and the working set stays put.
			if _, _, err := m.Retrieve(context.Background(), id, "ghost", time.Duration(objsPer-1)*time.Second,
				time.Duration(objsPer)*time.Second, time.Hour); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkManagerPutParallel measures admission throughput with 8
// goroutines writing disjoint caches (no eviction).
func BenchmarkManagerPutParallel(b *testing.B) {
	const goroutines = 8
	m, err := NewManager(Config{Policy: LSC{}, Budget: 1 << 40, Fetcher: nullFetcher})
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism((goroutines + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// One private cache per goroutine: pushHead requires
		// strictly increasing timestamps within a cache.
		g := seq.Add(1)
		id := fmt.Sprintf("w%03d", g)
		i := 0
		for pb.Next() {
			i++
			obj := &Object{
				ID:        fmt.Sprintf("o%d-%d", g, i),
				Timestamp: time.Duration(i) * time.Microsecond,
				Size:      1 << 10,
			}
			if err := m.Put(id, obj, time.Duration(i)*time.Microsecond); err != nil {
				b.Fatal(err)
			}
		}
	})
}
