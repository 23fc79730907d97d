package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// CacheStats' counts are obs.Counter; the cases below pin, on the bundle's
// own fields, what the paper's byte accounting relies on: fractional
// totals, monotonicity, and a rejected delta that is tallied, not silent.

func TestCounterBasics(t *testing.T) {
	var s CacheStats
	c := &s.HitBytes
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter Value = %v, want 0", got)
	}
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("Value = %v, want 3.5", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var s CacheStats
	c := &s.HitBytes
	c.Add(10)
	c.Add(-5)
	if got := c.Value(); got != 10 {
		t.Errorf("Value = %v, want 10 (negative deltas ignored)", got)
	}
	if got := c.Dropped(); got != 1 {
		t.Errorf("Dropped = %v, want 1", got)
	}
}

func TestCounterRejectsNaN(t *testing.T) {
	var s CacheStats
	c := &s.HitBytes
	c.Add(math.NaN())
	if got := c.Value(); got != 0 {
		t.Errorf("Value = %v, want 0 after NaN", got)
	}
	if got := c.Dropped(); got != 1 {
		t.Errorf("Dropped = %v, want 1", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var s CacheStats
	c := &s.Requests
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("Value = %v, want 8000", got)
	}
}

func TestMeanBasics(t *testing.T) {
	var m Mean
	for _, x := range []float64{1, 2, 3, 4, 5} {
		m.Observe(x)
	}
	if got := m.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := m.N(); got != 5 {
		t.Errorf("N = %v, want 5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.N() != 0 {
		t.Error("empty Mean should report zeros")
	}
}

func TestMeanMatchesNaive(t *testing.T) {
	// Property: Welford mean equals the naive sum/n for arbitrary input.
	f := func(xs []float64) bool {
		var m Mean
		var sum float64
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				ok = false
				break
			}
			m.Observe(x)
			sum += x
		}
		if !ok || len(xs) == 0 {
			return true
		}
		naive := sum / float64(len(xs))
		return math.Abs(m.Mean()-naive) <= 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 10)
	w.Set(10*time.Second, 20) // 10 for 10s
	w.Set(30*time.Second, 0)  // 20 for 20s
	// average over [0, 40s]: (10*10 + 20*20 + 0*10)/40 = 12.5
	if got, want := w.Average(40*time.Second), 12.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("Average = %v, want %v", got, want)
	}
	if got := w.Max(); got != 20 {
		t.Errorf("Max = %v, want 20", got)
	}
	if got := w.Current(); got != 0 {
		t.Errorf("Current = %v, want 0", got)
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 5)
	w.Add(10*time.Second, 5)
	if got := w.Current(); got != 10 {
		t.Errorf("Current = %v, want 10", got)
	}
	w.Add(10*time.Second, -10)
	if got := w.Current(); got != 0 {
		t.Errorf("Current = %v, want 0", got)
	}
}

func TestTimeWeightedClampsBackwardTime(t *testing.T) {
	var w TimeWeighted
	w.Set(10*time.Second, 1)
	w.Set(5*time.Second, 2) // earlier timestamp: clamped, no negative dt
	if got := w.Average(10 * time.Second); got < 0 {
		t.Errorf("Average went negative: %v", got)
	}
	if got := w.Current(); got != 2 {
		t.Errorf("Current = %v, want 2", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var w TimeWeighted
	if got := w.Average(time.Minute); got != 0 {
		t.Errorf("empty Average = %v, want 0", got)
	}
}

func TestSamplerQuantiles(t *testing.T) {
	var s Sampler
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 50}, {0.95, 95}, {1, 100},
	}
	for _, tt := range tests {
		if got := s.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := s.Mean(); got != 50.5 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
}

func TestSamplerEmpty(t *testing.T) {
	var s Sampler
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.N() != 0 {
		t.Error("empty Sampler should report zeros")
	}
}

func TestSamplerObserveAfterQuantile(t *testing.T) {
	var s Sampler
	s.Observe(3)
	s.Observe(1)
	_ = s.Quantile(0.5) // sorts
	s.Observe(2)
	if got := s.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1 after re-sort", got)
	}
}

func TestSamplerQuantileMonotone(t *testing.T) {
	// Property: quantiles are monotone in q.
	f := func(xs []float64, a, b float64) bool {
		var s Sampler
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
			s.Observe(x)
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheStatsHitRatio(t *testing.T) {
	var s CacheStats
	if got := s.HitRatio(); got != 0 {
		t.Errorf("HitRatio with no requests = %v, want 0", got)
	}
	s.Requests.Add(4)
	s.Hits.Add(3)
	if got := s.HitRatio(); got != 0.75 {
		t.Errorf("HitRatio = %v, want 0.75", got)
	}
}

func TestSnapshotAt(t *testing.T) {
	var s CacheStats
	s.Requests.Add(10)
	s.Hits.Add(5)
	s.HitBytes.Add(1000)
	s.Latency.Observe(0.2)
	s.CacheSize.Set(0, 100)
	s.CacheSize.Set(10*time.Second, 300)
	snap := s.SnapshotAt(20 * time.Second)
	if snap.HitRatio != 0.5 {
		t.Errorf("HitRatio = %v, want 0.5", snap.HitRatio)
	}
	if snap.MeanLatency != 0.2 {
		t.Errorf("MeanLatency = %v, want 0.2", snap.MeanLatency)
	}
	// avg cache size = (100*10 + 300*10)/20 = 200
	if snap.AvgCacheSize != 200 {
		t.Errorf("AvgCacheSize = %v, want 200", snap.AvgCacheSize)
	}
	if snap.MaxCacheSize != 300 {
		t.Errorf("MaxCacheSize = %v, want 300", snap.MaxCacheSize)
	}
}

func TestAverageSnapshots(t *testing.T) {
	a := Snapshot{HitRatio: 0.4, MeanLatency: 1}
	b := Snapshot{HitRatio: 0.6, MeanLatency: 3}
	avg := AverageSnapshots([]Snapshot{a, b})
	if math.Abs(avg.HitRatio-0.5) > 1e-12 {
		t.Errorf("HitRatio = %v, want 0.5", avg.HitRatio)
	}
	if math.Abs(avg.MeanLatency-2) > 1e-12 {
		t.Errorf("MeanLatency = %v, want 2", avg.MeanLatency)
	}
}

func TestAverageSnapshotsEmpty(t *testing.T) {
	if got := AverageSnapshots(nil); got != (Snapshot{}) {
		t.Errorf("AverageSnapshots(nil) = %+v, want zero", got)
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KB"},
		{3 << 20, "3.00MB"},
		{1 << 30, "1.00GB"},
	}
	for _, tt := range tests {
		if got := FormatBytes(tt.in); got != tt.want {
			t.Errorf("FormatBytes(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestTimeWeightedAverageBoundsProperty(t *testing.T) {
	// Property: the time-weighted average always lies within [min, max]
	// of the values set, for any non-decreasing timestamp sequence.
	f := func(deltas []uint16, values []uint16) bool {
		if len(values) == 0 {
			return true
		}
		var w TimeWeighted
		var at time.Duration
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range values {
			if i < len(deltas) {
				at += time.Duration(deltas[i]) * time.Millisecond
			} else {
				at += time.Millisecond
			}
			w.Set(at, float64(v))
			lo = math.Min(lo, float64(v))
			hi = math.Max(hi, float64(v))
		}
		avg := w.Average(at + time.Second)
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnapshotAverageIdempotent(t *testing.T) {
	// Averaging a single snapshot returns it unchanged.
	s := Snapshot{Requests: 5, HitRatio: 0.3, MaxCacheSize: 42}
	got := AverageSnapshots([]Snapshot{s})
	if got != s {
		t.Errorf("AverageSnapshots([s]) = %+v, want %+v", got, s)
	}
}
