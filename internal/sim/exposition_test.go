package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"gobad/internal/core"
	"gobad/internal/obs"
)

// TestExpositionMatchesSnapshot runs one small simulation with the final
// Prometheus dump enabled and diffs the dump against Result.Metrics
// field-for-field: the scrapable surface and the paper's snapshot must
// never disagree about a run.
func TestExpositionMatchesSnapshot(t *testing.T) {
	var dump strings.Builder
	cfg := DefaultConfig().Scaled(100)
	cfg.Duration = 20 * time.Minute
	cfg.JoinWindow = 2 * time.Minute
	cfg.Policy = core.LSC{}
	cfg.CacheBudget = 1 << 20
	cfg.Seed = 7
	cfg.ExpositionWriter = &dump

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseText(strings.NewReader(dump.String()))
	if err != nil {
		t.Fatalf("sim exposition does not parse: %v\n%s", err, dump.String())
	}
	snap := res.Metrics

	checks := map[string]float64{
		"bad_cache_requests_total":                       snap.Requests,
		"bad_cache_hits_total":                           snap.Hits,
		"bad_cache_hit_ratio":                            snap.HitRatio,
		"bad_cache_hit_bytes_total":                      snap.HitBytes,
		"bad_cache_miss_bytes_total":                     snap.MissBytes,
		"bad_cache_fetch_bytes_total":                    snap.FetchBytes,
		"bad_cache_volume_bytes_total":                   snap.VolumeBytes,
		"bad_cache_evictions_total":                      snap.Evictions,
		"bad_cache_expirations_total":                    snap.Expirations,
		"bad_cache_consumed_total":                       snap.Consumed,
		"bad_cache_fetch_errors_total":                   snap.FetchErrors,
		"bad_cache_stale_serves_total":                   snap.StaleServed,
		"bad_cache_peer_hits_total":                      snap.PeerHits,
		"bad_cache_peer_misses_total":                    snap.PeerMisses,
		"bad_cache_peer_hit_ratio":                       snap.PeerHitRatio,
		"bad_notifications_delivered_total":              snap.Delivered,
		"bad_cache_size_bytes_avg":                       snap.AvgCacheSize,
		"bad_cache_size_bytes_max":                       snap.MaxCacheSize,
		"bad_cache_holding_time_seconds_mean":            snap.HoldingTime,
		`bad_retrieval_latency_seconds{quantile="0.95"}`: snap.P95Latency,
	}
	for key, want := range checks {
		got, ok := parsed.Value(key)
		if !ok {
			t.Errorf("dump is missing %s", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, snapshot says %v", key, got, want)
		}
	}

	// MeanLatency is exposed as the summary's _sum/_count.
	sum, okSum := parsed.Value("bad_retrieval_latency_seconds_sum")
	cnt, okCnt := parsed.Value("bad_retrieval_latency_seconds_count")
	if !okSum || !okCnt || cnt == 0 {
		t.Fatalf("latency summary incomplete: sum %v (%v) count %v (%v)", sum, okSum, cnt, okCnt)
	}
	if mean := sum / cnt; math.Abs(mean-snap.MeanLatency) > 1e-9*math.Max(1, snap.MeanLatency) {
		t.Errorf("summary mean = %v, snapshot MeanLatency = %v", mean, snap.MeanLatency)
	}

	// The run produced traffic, so the load-bearing families must be live.
	if v, _ := parsed.Value("bad_cache_requests_total"); v == 0 {
		t.Error("simulation produced no requests — scenario too small to exercise the dump")
	}
	// Manager structure is exported alongside the cache stats.
	if _, ok := parsed.Value("bad_cache_budget_bytes"); !ok {
		t.Error("dump is missing bad_cache_budget_bytes")
	}
	if typ := parsed.Types["bad_cache_caches"]; typ != obs.GaugeType {
		t.Errorf("bad_cache_caches TYPE = %q, want gauge", typ)
	}
}
