// Package metrics is the paper's evaluation bundle: CacheStats, the
// per-broker accounting every figure of Sections V and VI is drawn from
// (hit ratio, hit/miss/fetch/volume bytes, subscriber latency, holding
// time, time-averaged cache size), its Snapshot for table rows and JSON,
// and the three aggregates the bundle needs beyond a counter — Mean
// (running mean), TimeWeighted (cache size over time) and Sampler (exact
// quantiles of a finite run).
//
// Counts are obs.Counter, the module's one float counter; the bundle
// exports itself through CacheStats.Collector, so internal/obs knows
// nothing about this package. Sampler keeps every sample and therefore
// belongs to runs that end — the simulator and the experiment rig. A
// long-lived server observes latency into an obs.Histogram.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"gobad/internal/obs"
)

// Mean is an online arithmetic mean (incremental update, no sample
// retention). The zero value is ready to use. Mean is safe for concurrent
// use.
type Mean struct {
	mu   sync.Mutex
	n    int64
	mean float64
}

// Observe records one sample.
func (m *Mean) Observe(x float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
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

// Sampler keeps every observed sample so quantiles can be computed at the
// end of a run: for the population sizes used in the evaluation (tens of
// thousands of retrievals) exact samples are cheap, avoid sketch error and
// keep sim runs paper-exact. Its memory grows with the run, so it is for
// runs that end; servers use obs.Histogram. The zero value is ready to use.
// Sampler is safe for concurrent use.
type Sampler struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
	sum     float64 // in observation order, whatever Quantile sorted since
}

// Observe records one sample.
func (s *Sampler) Observe(x float64) {
	s.mu.Lock()
	s.samples = append(s.samples, x)
	s.sorted = false
	s.sum += x
	s.mu.Unlock()
}

// N returns the number of samples observed.
func (s *Sampler) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
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

// Mean returns the arithmetic mean of all samples (0 if none).
func (s *Sampler) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// CacheStats bundles the per-run metrics reported in the paper's evaluation
// (Figures 3, 4, 5 and 7). One CacheStats is owned by each broker / each
// simulation run; all components report into it.
type CacheStats struct {
	// Requests counts result objects requested by subscribers.
	Requests obs.Counter
	// Hits counts result objects served from the broker cache.
	Hits obs.Counter
	// HitBytes accumulates bytes served from the broker cache.
	HitBytes obs.Counter
	// MissBytes accumulates bytes fetched from the data cluster due to
	// cache misses (excludes the base volume used to populate caches).
	MissBytes obs.Counter
	// FetchBytes accumulates all bytes fetched from the data cluster
	// (base volume + miss re-fetches). Fig. 4(a) "fetch".
	FetchBytes obs.Counter
	// VolumeBytes accumulates the bytes produced by the data cluster in
	// response to all subscriptions (the 'Vol' line in Fig. 4(a)).
	VolumeBytes obs.Counter
	// Latency keeps the per-retrieval subscriber latencies in seconds:
	// mean and exact quantiles. Fig. 4(b). Fed by runs that end (the
	// simulator, the experiment rig), never by a live broker.
	Latency Sampler
	// HoldingTime observes, in seconds, how long each object stayed
	// cached (insert -> drop). Fig. 4(c).
	HoldingTime Mean
	// CacheSize tracks total cached bytes over time. Fig. 5(a).
	CacheSize TimeWeighted
	// Evictions counts objects dropped to make room (policy evictions).
	Evictions obs.Counter
	// Expirations counts objects dropped by TTL expiry.
	Expirations obs.Counter
	// Consumed counts objects dropped because every attached subscriber
	// retrieved them.
	Consumed obs.Counter
	// Delivered counts notifications delivered to subscribers.
	Delivered obs.Counter
	// FetchErrors counts failed data-cluster fetches (the broker's
	// degraded-path trigger).
	FetchErrors obs.Counter
	// StaleServed counts retrievals answered from the cache alone after a
	// fetch failure (graceful degradation instead of a subscriber error).
	StaleServed obs.Counter
	// PeerHits counts miss lookups answered by a sibling broker's cache
	// (the fabric's two-tier path: local cache -> HRW-owner peer ->
	// cluster), sparing a cluster fetch. Lookups executed, not callers:
	// an answer replayed from the broker's short-TTL memo is not a lookup.
	PeerHits obs.Counter
	// PeerMisses counts miss lookups that consulted a sibling and fell
	// through to the cluster anyway (owner cold, draining or dead).
	PeerMisses obs.Counter
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
		P95Latency:   s.Latency.Quantile(0.95),
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

// Collector exports every CacheStats field as scrape-time families. now
// supplies the run clock used to close out the time-weighted cache-size
// average; pass the broker's (or simulator's) clock.
//
// The emitted families mirror Snapshot field-for-field (the sim exposition
// test diffs the two), so a Prometheus scrape and a /v1/stats snapshot can
// never disagree about a run.
func (s *CacheStats) Collector(now func() time.Duration) obs.Collector {
	return obs.CollectorFunc(func(emit func(obs.Family)) {
		counter := func(name, help string, c *obs.Counter) {
			emit(obs.Family{Name: name, Help: help, Type: obs.CounterType, Points: []obs.Point{{Value: c.Value()}}})
		}
		gauge := func(name, help string, v float64) {
			emit(obs.Family{Name: name, Help: help, Type: obs.GaugeType, Points: []obs.Point{{Value: v}}})
		}
		counter("bad_cache_requests_total", "Result objects requested by subscribers.", &s.Requests)
		counter("bad_cache_hits_total", "Result objects served from the broker cache.", &s.Hits)
		gauge("bad_cache_hit_ratio", "Hits/Requests over the whole run (Fig. 3).", s.HitRatio())
		counter("bad_cache_hit_bytes_total", "Bytes served from the broker cache.", &s.HitBytes)
		counter("bad_cache_miss_bytes_total", "Bytes re-fetched from the data cluster on cache misses.", &s.MissBytes)
		counter("bad_cache_fetch_bytes_total", "All bytes fetched from the data cluster, base volume plus miss re-fetches (Fig. 4a 'fetch').", &s.FetchBytes)
		counter("bad_cache_volume_bytes_total", "Bytes produced by the data cluster for all subscriptions (Fig. 4a 'Vol').", &s.VolumeBytes)
		counter("bad_cache_evictions_total", "Objects dropped by policy eviction.", &s.Evictions)
		counter("bad_cache_expirations_total", "Objects dropped by TTL expiry.", &s.Expirations)
		counter("bad_cache_consumed_total", "Objects dropped because every attached subscriber retrieved them.", &s.Consumed)
		counter("bad_notifications_delivered_total", "Notifications delivered to subscribers.", &s.Delivered)
		counter("bad_cache_fetch_errors_total", "Failed data-cluster fetches.", &s.FetchErrors)
		counter("bad_cache_stale_serves_total", "Retrievals served stale from cache after a fetch failure.", &s.StaleServed)
		counter("bad_cache_peer_hits_total", "Miss lookups answered by a sibling broker's cache instead of the data cluster.", &s.PeerHits)
		counter("bad_cache_peer_misses_total", "Miss lookups that consulted a sibling broker and fell through to the cluster.", &s.PeerMisses)
		gauge("bad_cache_peer_hit_ratio", "Fraction of peer lookups the fabric absorbed without a cluster fetch.", s.PeerHitRatio())

		at := now()
		gauge("bad_cache_size_bytes", "Currently cached bytes.", s.CacheSize.Current())
		gauge("bad_cache_size_bytes_avg", "Time-weighted average cached bytes (Fig. 5a).", s.CacheSize.Average(at))
		gauge("bad_cache_size_bytes_max", "Largest cached byte total ever observed.", s.CacheSize.Max())
		gauge("bad_cache_holding_time_seconds_mean", "Mean insert-to-drop holding time (Fig. 4c).", s.HoldingTime.Mean())

		// Subscriber retrieval latency as a summary: mean via _sum/_count,
		// tail via the exact sample quantiles. Only finite runs (the
		// simulator, the experiment rig) observe it, so a process that never
		// did — a live broker, whose per-stage latency is the
		// bad_delivery_latency_seconds histogram — exports no empty family.
		n := s.Latency.N()
		if n == 0 {
			return
		}
		emit(obs.Family{
			Name: "bad_retrieval_latency_seconds",
			Help: "Per-retrieval subscriber latency (Fig. 4b).",
			Type: obs.SummaryType,
			Points: []obs.Point{{Summary: &obs.SummarySnapshot{
				Quantiles: map[float64]float64{
					0.5:  s.Latency.Quantile(0.5),
					0.95: s.Latency.Quantile(0.95),
					0.99: s.Latency.Quantile(0.99),
				},
				Count: uint64(n),
				Sum:   s.Latency.Mean() * float64(n),
			}}},
		})
	})
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
