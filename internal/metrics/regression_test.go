package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestTimeWeightedAddConcurrent is the regression test for the
// check-then-act race in TimeWeighted.Add: the old implementation read
// lastVal under the lock, unlocked, then called Set — two concurrent Adds
// could read the same base and lose a delta. Run with -race; the final
// value must equal the sum of every delta regardless of interleaving.
func TestTimeWeightedAddConcurrent(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	var w TimeWeighted
	w.Set(0, 0)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				at := time.Duration(g*perG+i) * time.Microsecond
				w.Add(at, 1)
			}
		}(g)
	}
	wg.Wait()

	if got, want := w.Current(), float64(goroutines*perG); got != want {
		t.Fatalf("Current() = %v after concurrent Adds, want %v (lost deltas)", got, want)
	}
	if max := w.Max(); max != float64(goroutines*perG) {
		t.Fatalf("Max() = %v, want %v", max, float64(goroutines*perG))
	}
}

// TestTimeWeightedAddNegativeDelta checks Add also shifts downward
// atomically (cache-size accounting uses negative deltas on drops).
func TestTimeWeightedAddNegativeDelta(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 10)
	w.Add(time.Second, -4)
	if got := w.Current(); got != 6 {
		t.Fatalf("Current() = %v, want 6", got)
	}
}

// TestCounterConcurrentAdd exercises the CAS loop of the atomic counter
// under -race: totals and drop tallies must both be exact.
func TestCounterConcurrentAdd(t *testing.T) {
	const goroutines = 16
	const perG = 5000
	var s CacheStats
	c := &s.FetchBytes
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(0.5)
				c.Add(-1) // rejected, tallied
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), float64(goroutines*perG)*0.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("Value() = %v, want %v", got, want)
	}
	if got, want := c.Dropped(), int64(goroutines*perG); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
}

// TestSamplerUncappedStaysExact guards the contract: every sample is
// retained, preserving paper-exact quantiles in sim runs.
func TestSamplerUncappedStaysExact(t *testing.T) {
	var s Sampler
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i))
	}
	if s.N() != 1000 {
		t.Fatalf("N() = %d, want 1000", s.N())
	}
	if got := s.Quantile(0.95); got != 950 {
		t.Fatalf("Quantile(0.95) = %v, want 950", got)
	}
}
