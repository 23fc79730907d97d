package obs

import (
	"time"

	"gobad/internal/core"
	"gobad/internal/metrics"
)

// NewCacheStatsCollector exports every metrics.CacheStats field — the
// paper's evaluation bundle (hit ratio, hit/miss/fetch/volume bytes,
// latency, holding time, cache size, drop reasons) — as scrape-time
// families. now supplies the run clock used to close out the time-weighted
// cache-size average; pass the broker's (or simulator's) clock.
//
// The emitted families mirror metrics.Snapshot field-for-field (the sim
// exposition test diffs the two), so a Prometheus scrape and a /v1/stats
// snapshot can never disagree about a run.
func NewCacheStatsCollector(stats *metrics.CacheStats, now func() time.Duration) Collector {
	return CollectorFunc(func(emit func(Family)) {
		counter := func(name, help string, v float64) {
			emit(Family{Name: name, Help: help, Type: CounterType, Points: []Point{{Value: v}}})
		}
		gauge := func(name, help string, v float64) {
			emit(Family{Name: name, Help: help, Type: GaugeType, Points: []Point{{Value: v}}})
		}
		counter("bad_cache_requests_total", "Result objects requested by subscribers.", stats.Requests.Value())
		counter("bad_cache_hits_total", "Result objects served from the broker cache.", stats.Hits.Value())
		gauge("bad_cache_hit_ratio", "Hits/Requests over the whole run (Fig. 3).", stats.HitRatio())
		counter("bad_cache_hit_bytes_total", "Bytes served from the broker cache.", stats.HitBytes.Value())
		counter("bad_cache_miss_bytes_total", "Bytes re-fetched from the data cluster on cache misses.", stats.MissBytes.Value())
		counter("bad_cache_fetch_bytes_total", "All bytes fetched from the data cluster, base volume plus miss re-fetches (Fig. 4a 'fetch').", stats.FetchBytes.Value())
		counter("bad_cache_volume_bytes_total", "Bytes produced by the data cluster for all subscriptions (Fig. 4a 'Vol').", stats.VolumeBytes.Value())
		counter("bad_cache_evictions_total", "Objects dropped by policy eviction.", stats.Evictions.Value())
		counter("bad_cache_expirations_total", "Objects dropped by TTL expiry.", stats.Expirations.Value())
		counter("bad_cache_consumed_total", "Objects dropped because every attached subscriber retrieved them.", stats.Consumed.Value())
		counter("bad_notifications_delivered_total", "Notifications delivered to subscribers.", stats.Delivered.Value())
		counter("bad_cache_fetch_errors_total", "Failed data-cluster fetches.", stats.FetchErrors.Value())
		counter("bad_cache_stale_serves_total", "Retrievals served stale from cache after a fetch failure.", stats.StaleServed.Value())
		counter("bad_cache_peer_hits_total", "Miss lookups answered by a sibling broker's cache instead of the data cluster.", stats.PeerHits.Value())
		counter("bad_cache_peer_misses_total", "Miss lookups that consulted a sibling broker and fell through to the cluster.", stats.PeerMisses.Value())
		gauge("bad_cache_peer_hit_ratio", "Fraction of peer lookups the fabric absorbed without a cluster fetch.", stats.PeerHitRatio())

		at := now()
		gauge("bad_cache_size_bytes", "Currently cached bytes.", stats.CacheSize.Current())
		gauge("bad_cache_size_bytes_avg", "Time-weighted average cached bytes (Fig. 5a).", stats.CacheSize.Average(at))
		gauge("bad_cache_size_bytes_max", "Largest cached byte total ever observed.", stats.CacheSize.Max())
		gauge("bad_cache_holding_time_seconds_mean", "Mean insert-to-drop holding time (Fig. 4c).", stats.HoldingTime.Mean())

		// Subscriber retrieval latency as a summary: mean via _sum/_count
		// (Welford mean * n), tail via the exact sample quantiles.
		n := stats.Latency.N()
		emit(Family{
			Name: "bad_retrieval_latency_seconds",
			Help: "Per-retrieval subscriber latency (Fig. 4b).",
			Type: SummaryType,
			Points: []Point{{Summary: &SummarySnapshot{
				Quantiles: map[float64]float64{
					0.5:  stats.LatencySamples.Quantile(0.5),
					0.95: stats.LatencySamples.Quantile(0.95),
					0.99: stats.LatencySamples.Quantile(0.99),
				},
				Count: uint64(n),
				Sum:   stats.Latency.Mean() * float64(n),
			}}},
		})
	})
}

// NewManagerCollector exports the cache manager's live structure: budget,
// totals and the singleflight coalescing tallies.
func NewManagerCollector(m *core.Manager) Collector {
	return CollectorFunc(func(emit func(Family)) {
		emit(Family{Name: "bad_cache_budget_bytes", Help: "Configured cache budget B.",
			Type: GaugeType, Points: []Point{{Value: float64(m.Budget())}}})
		emit(Family{Name: "bad_cache_total_bytes", Help: "Total cached bytes across all caches.",
			Type: GaugeType, Points: []Point{{Value: float64(m.TotalSize())}}})
		emit(Family{Name: "bad_cache_caches", Help: "Live result caches (backend subscriptions).",
			Type: GaugeType, Points: []Point{{Value: float64(m.NumCaches())}}})

		leaders, coalesced := m.FlightStats()
		emit(Family{Name: "bad_singleflight_leader_total", Help: "Miss fetches executed against the data cluster.",
			Type: CounterType, Points: []Point{{Value: float64(leaders)}}})
		emit(Family{Name: "bad_singleflight_coalesced_total", Help: "Miss fetches coalesced onto an in-flight leader.",
			Type: CounterType, Points: []Point{{Value: float64(coalesced)}}})
	})
}
