// Package metrics provides the measurement primitives used by the BAD
// broker, the discrete-event simulator and the experiment harness: simple
// counters, running means, time-weighted averages (for cache-size-over-time
// accounting), percentile sketches backed by exact samples, and the hit/miss
// accounting bundle reported in the paper's evaluation (hit ratio, hit byte,
// miss byte, fetch, subscriber latency, holding time).
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing float64 counter. The zero value is
// ready to use. Counter is safe for concurrent use.
//
// The total is kept as the IEEE-754 bit pattern of a float64 inside an
// atomic.Uint64 and updated by a compare-and-swap loop, so Add takes no
// mutex: the cache manager bumps its counters on every GET, outside its own
// lock, and a second lock there would serialise retrievals again.
type Counter struct {
	bits    atomic.Uint64 // math.Float64bits of the running total
	n       atomic.Int64
	dropped atomic.Int64
}

// Add increases the counter by v (which may be fractional) and reports
// whether the delta was applied. Negative and NaN deltas are rejected so
// byte counters stay monotone — but they are NOT silent: each rejection is
// tallied and visible through Dropped, so byte-accounting bugs that produce
// negative deltas cannot hide.
func (c *Counter) Add(v float64) bool {
	if v < 0 || math.IsNaN(v) {
		c.dropped.Add(1)
		return false
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	c.n.Add(1)
	return true
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Dropped returns how many Add calls were rejected for carrying a negative
// or NaN delta. A non-zero value indicates an accounting bug upstream.
func (c *Counter) Dropped() int64 { return c.dropped.Load() }

// Value returns the accumulated total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Count returns how many times Add/Inc was called.
func (c *Counter) Count() int64 { return c.n.Load() }

// Mean is an online arithmetic mean with variance tracking (Welford's
// algorithm). The zero value is ready to use. Mean is safe for concurrent
// use.
type Mean struct {
	mu   sync.Mutex
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe records one sample.
func (m *Mean) Observe(x float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of samples observed.
func (m *Mean) N() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Mean returns the arithmetic mean of the observed samples (0 if none).
func (m *Mean) Mean() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mean
}

// Var returns the (population) variance of the observed samples.
func (m *Mean) Var() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Std returns the population standard deviation.
func (m *Mean) Std() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest observed sample (0 if none).
func (m *Mean) Min() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.min
}

// Max returns the largest observed sample (0 if none).
func (m *Mean) Max() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.max
}

// TimeWeighted tracks a piecewise-constant quantity over (virtual or real)
// time and reports its time-weighted average and maximum. The paper uses
// this for "time-averaged cache size": each size is weighted by how long the
// cache stayed at that size. The zero value is ready to use; the first call
// to Set establishes the epoch.
type TimeWeighted struct {
	mu       sync.Mutex
	started  bool
	lastAt   time.Duration
	lastVal  float64
	weighted float64 // integral of value dt
	elapsed  time.Duration
	max      float64
}

// Set records that the tracked quantity changed to v at (monotonic) time at.
// Calls must use non-decreasing timestamps; an earlier timestamp is clamped
// to the latest one seen.
func (w *TimeWeighted) Set(at time.Duration, v float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.setLocked(at, v)
}

// setLocked is Set's body; the caller holds w.mu.
func (w *TimeWeighted) setLocked(at time.Duration, v float64) {
	if !w.started {
		w.started = true
		w.lastAt = at
		w.lastVal = v
		w.max = v
		return
	}
	if at < w.lastAt {
		at = w.lastAt
	}
	dt := at - w.lastAt
	w.weighted += w.lastVal * dt.Seconds()
	w.elapsed += dt
	w.lastAt = at
	w.lastVal = v
	if v > w.max {
		w.max = v
	}
}

// Add shifts the tracked quantity by delta at time at. The read of the
// current value and the write of the shifted one happen under one lock
// acquisition: two concurrent Adds can never both read the same base value
// and lose one delta.
func (w *TimeWeighted) Add(at time.Duration, delta float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.setLocked(at, w.lastVal+delta)
}

// Average returns the time-weighted average up to time at.
func (w *TimeWeighted) Average(at time.Duration) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		return 0
	}
	weighted, elapsed := w.weighted, w.elapsed
	if at > w.lastAt {
		dt := at - w.lastAt
		weighted += w.lastVal * dt.Seconds()
		elapsed += dt
	}
	if elapsed <= 0 {
		return w.lastVal
	}
	return weighted / elapsed.Seconds()
}

// Max returns the largest value ever set.
func (w *TimeWeighted) Max() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.max
}

// Current returns the most recently set value.
func (w *TimeWeighted) Current() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastVal
}

// Sampler keeps observed samples so quantiles can be computed at the end of
// a run. By default it retains every sample — for the population sizes used
// in the evaluation (tens of thousands of retrievals) exact samples are
// cheap and avoid sketch error, and sim runs stay paper-exact. Long-lived
// deployments should bound memory with SetCap, which switches to uniform
// reservoir sampling (Vitter's Algorithm R): retained samples stay a
// uniform subset of everything observed, so quantiles remain unbiased.
// The zero value is ready to use. Sampler is safe for concurrent use.
type Sampler struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
	cap     int
	seen    int64
	rng     *rand.Rand
}

// SetCap bounds the retained sample count to n (n <= 0 removes the bound,
// restoring exact retention for samples observed from then on). seed drives
// the reservoir's replacement choices so capped runs are reproducible.
// Call it before observing; shrinking an already-overfull reservoir
// truncates it.
func (s *Sampler) SetCap(n int, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cap = n
	s.rng = rand.New(rand.NewSource(seed))
	if n > 0 && len(s.samples) > n {
		s.samples = s.samples[:n]
	}
}

// Observe records one sample. Uncapped it appends; capped and full it
// replaces a uniformly chosen victim with probability cap/seen, keeping the
// reservoir a uniform sample of the whole stream.
func (s *Sampler) Observe(x float64) {
	s.mu.Lock()
	s.seen++
	if s.cap > 0 && len(s.samples) >= s.cap {
		// The reservoir slot order may have been permuted by a Quantile
		// sort; uniformity is order-independent, so that is harmless.
		if j := s.rng.Int63n(s.seen); j < int64(s.cap) {
			s.samples[j] = x
			s.sorted = false
		}
		s.mu.Unlock()
		return
	}
	s.samples = append(s.samples, x)
	s.sorted = false
	s.mu.Unlock()
}

// N returns the number of retained samples (= observations when uncapped).
func (s *Sampler) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Seen returns how many samples were observed, including ones the capped
// reservoir has since displaced.
func (s *Sampler) Seen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank on the
// sorted samples, or 0 if no samples were recorded.
func (s *Sampler) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if q <= 0 {
		return s.samples[0]
	}
	if q >= 1 {
		return s.samples[len(s.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.samples[idx]
}

// Mean returns the arithmetic mean of all samples.
func (s *Sampler) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.samples {
		sum += x
	}
	return sum / float64(len(s.samples))
}

// CacheStats bundles the per-run metrics reported in the paper's evaluation
// (Figures 3, 4, 5 and 7). One CacheStats is owned by each broker / each
// simulation run; all components report into it.
type CacheStats struct {
	// Requests counts result objects requested by subscribers.
	Requests Counter
	// Hits counts result objects served from the broker cache.
	Hits Counter
	// HitBytes accumulates bytes served from the broker cache.
	HitBytes Counter
	// MissBytes accumulates bytes fetched from the data cluster due to
	// cache misses (excludes the base volume used to populate caches).
	MissBytes Counter
	// FetchBytes accumulates all bytes fetched from the data cluster
	// (base volume + miss re-fetches). Fig. 4(a) "fetch".
	FetchBytes Counter
	// VolumeBytes accumulates the bytes produced by the data cluster in
	// response to all subscriptions (the 'Vol' line in Fig. 4(a)).
	VolumeBytes Counter
	// Latency observes per-retrieval subscriber latency in seconds.
	Latency Mean
	// LatencySamples keeps exact latency samples for quantiles.
	LatencySamples Sampler
	// HoldingTime observes, in seconds, how long each object stayed
	// cached (insert -> drop). Fig. 4(c).
	HoldingTime Mean
	// CacheSize tracks total cached bytes over time. Fig. 5(a).
	CacheSize TimeWeighted
	// Evictions counts objects dropped to make room (policy evictions).
	Evictions Counter
	// Expirations counts objects dropped by TTL expiry.
	Expirations Counter
	// Consumed counts objects dropped because every attached subscriber
	// retrieved them.
	Consumed Counter
	// Delivered counts notifications delivered to subscribers.
	Delivered Counter
	// FetchErrors counts failed data-cluster fetches (the broker's
	// degraded-path trigger).
	FetchErrors Counter
	// StaleServed counts retrievals answered from the cache alone after a
	// fetch failure (graceful degradation instead of a subscriber error).
	StaleServed Counter
	// PeerHits counts miss lookups answered by a sibling broker's cache
	// (the fabric's two-tier path: local cache -> HRW-owner peer ->
	// cluster), sparing a cluster fetch.
	PeerHits Counter
	// PeerMisses counts miss lookups that consulted a sibling and fell
	// through to the cluster anyway (owner cold, draining or dead).
	PeerMisses Counter
}

// HitRatio returns Hits/Requests (0 when no requests were made).
func (s *CacheStats) HitRatio() float64 {
	r := s.Requests.Value()
	if r == 0 {
		return 0
	}
	return s.Hits.Value() / r
}

// PeerHitRatio returns PeerHits/(PeerHits+PeerMisses): of the miss lookups
// that consulted a sibling broker, the fraction the fabric absorbed
// without a cluster fetch (0 when no peer lookups happened).
func (s *CacheStats) PeerHitRatio() float64 {
	h, m := s.PeerHits.Value(), s.PeerMisses.Value()
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// Snapshot captures the scalar values of a CacheStats at one instant,
// suitable for table rows and JSON encoding.
type Snapshot struct {
	Requests     float64 `json:"requests"`
	Hits         float64 `json:"hits"`
	HitRatio     float64 `json:"hit_ratio"`
	HitBytes     float64 `json:"hit_bytes"`
	MissBytes    float64 `json:"miss_bytes"`
	FetchBytes   float64 `json:"fetch_bytes"`
	VolumeBytes  float64 `json:"volume_bytes"`
	MeanLatency  float64 `json:"mean_latency_s"`
	P95Latency   float64 `json:"p95_latency_s"`
	HoldingTime  float64 `json:"holding_time_s"`
	AvgCacheSize float64 `json:"avg_cache_size_bytes"`
	MaxCacheSize float64 `json:"max_cache_size_bytes"`
	Evictions    float64 `json:"evictions"`
	Expirations  float64 `json:"expirations"`
	Consumed     float64 `json:"consumed"`
	Delivered    float64 `json:"delivered"`
	FetchErrors  float64 `json:"fetch_errors"`
	StaleServed  float64 `json:"stale_served"`
	PeerHits     float64 `json:"peer_hits"`
	PeerMisses   float64 `json:"peer_misses"`
	PeerHitRatio float64 `json:"peer_hit_ratio"`
}

// SnapshotAt captures all metrics; at is the run's final (virtual) time used
// to close out the time-weighted cache-size average.
func (s *CacheStats) SnapshotAt(at time.Duration) Snapshot {
	return Snapshot{
		Requests:     s.Requests.Value(),
		Hits:         s.Hits.Value(),
		HitRatio:     s.HitRatio(),
		HitBytes:     s.HitBytes.Value(),
		MissBytes:    s.MissBytes.Value(),
		FetchBytes:   s.FetchBytes.Value(),
		VolumeBytes:  s.VolumeBytes.Value(),
		MeanLatency:  s.Latency.Mean(),
		P95Latency:   s.LatencySamples.Quantile(0.95),
		HoldingTime:  s.HoldingTime.Mean(),
		AvgCacheSize: s.CacheSize.Average(at),
		MaxCacheSize: s.CacheSize.Max(),
		Evictions:    s.Evictions.Value(),
		Expirations:  s.Expirations.Value(),
		Consumed:     s.Consumed.Value(),
		Delivered:    s.Delivered.Value(),
		FetchErrors:  s.FetchErrors.Value(),
		StaleServed:  s.StaleServed.Value(),
		PeerHits:     s.PeerHits.Value(),
		PeerMisses:   s.PeerMisses.Value(),
		PeerHitRatio: s.PeerHitRatio(),
	}
}

// AverageSnapshots returns the element-wise arithmetic mean of several run
// snapshots; the paper averages each data point over ten independent runs.
func AverageSnapshots(snaps []Snapshot) Snapshot {
	var out Snapshot
	if len(snaps) == 0 {
		return out
	}
	n := float64(len(snaps))
	for _, s := range snaps {
		out.Requests += s.Requests / n
		out.Hits += s.Hits / n
		out.HitRatio += s.HitRatio / n
		out.HitBytes += s.HitBytes / n
		out.MissBytes += s.MissBytes / n
		out.FetchBytes += s.FetchBytes / n
		out.VolumeBytes += s.VolumeBytes / n
		out.MeanLatency += s.MeanLatency / n
		out.P95Latency += s.P95Latency / n
		out.HoldingTime += s.HoldingTime / n
		out.AvgCacheSize += s.AvgCacheSize / n
		out.MaxCacheSize += s.MaxCacheSize / n
		out.Evictions += s.Evictions / n
		out.Expirations += s.Expirations / n
		out.Consumed += s.Consumed / n
		out.Delivered += s.Delivered / n
		out.FetchErrors += s.FetchErrors / n
		out.StaleServed += s.StaleServed / n
		out.PeerHits += s.PeerHits / n
		out.PeerMisses += s.PeerMisses / n
		out.PeerHitRatio += s.PeerHitRatio / n
	}
	return out
}

// FormatBytes renders a byte quantity with a binary-ish human suffix, e.g.
// "1.5MB". Used by the table printers.
func FormatBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}
