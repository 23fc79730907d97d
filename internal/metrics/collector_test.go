package metrics

import (
	"strings"
	"testing"
	"time"

	"gobad/internal/obs"
)

// gatherText renders one collector in the text format and parses it back.
func gatherText(t *testing.T, c obs.Collector) *obs.TextMetrics {
	t.Helper()
	reg := obs.NewRegistry()
	reg.MustRegister(c)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	return parsed
}

func TestCacheStatsCollectorMirrorsSnapshot(t *testing.T) {
	stats := &CacheStats{}
	stats.Requests.Add(10)
	stats.Hits.Add(4)
	stats.HitBytes.Add(4096)
	stats.MissBytes.Add(1024)
	stats.FetchBytes.Add(5120)
	stats.VolumeBytes.Add(4096)
	stats.Evictions.Add(2)
	stats.Latency.Observe(0.25)
	stats.CacheSize.Set(0, 100)
	stats.CacheSize.Set(5*time.Second, 300)
	at := 10 * time.Second

	parsed := gatherText(t, stats.Collector(func() time.Duration { return at }))
	snap := stats.SnapshotAt(at)

	checks := map[string]float64{
		"bad_cache_requests_total":                       snap.Requests,
		"bad_cache_hits_total":                           snap.Hits,
		"bad_cache_hit_ratio":                            snap.HitRatio,
		"bad_cache_hit_bytes_total":                      snap.HitBytes,
		"bad_cache_miss_bytes_total":                     snap.MissBytes,
		"bad_cache_fetch_bytes_total":                    snap.FetchBytes,
		"bad_cache_volume_bytes_total":                   snap.VolumeBytes,
		"bad_cache_evictions_total":                      snap.Evictions,
		"bad_cache_peer_hits_total":                      snap.PeerHits,
		"bad_cache_peer_misses_total":                    snap.PeerMisses,
		"bad_cache_peer_hit_ratio":                       snap.PeerHitRatio,
		"bad_cache_size_bytes_avg":                       snap.AvgCacheSize,
		"bad_cache_size_bytes_max":                       snap.MaxCacheSize,
		"bad_cache_holding_time_seconds_mean":            snap.HoldingTime,
		`bad_retrieval_latency_seconds{quantile="0.95"}`: snap.P95Latency,
	}
	for key, want := range checks {
		got, ok := parsed.Value(key)
		if !ok {
			t.Errorf("missing sample %s", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

// TestCollectorSkipsLatencyUntilObserved: the retrieval-latency summary
// belongs to runs that observe it (sim, Rig); a bundle nobody fed a latency
// — a live broker's — exports no empty bad_retrieval_latency_seconds.
func TestCollectorSkipsLatencyUntilObserved(t *testing.T) {
	stats := &CacheStats{}
	stats.Requests.Add(1)
	col := stats.Collector(func() time.Duration { return time.Second })
	if typ, ok := gatherText(t, col).Types["bad_retrieval_latency_seconds"]; ok {
		t.Fatalf("unfed bundle exports bad_retrieval_latency_seconds (%s)", typ)
	}
	stats.Latency.Observe(0.5)
	if typ := gatherText(t, col).Types["bad_retrieval_latency_seconds"]; typ != obs.SummaryType {
		t.Fatalf("fed bundle: bad_retrieval_latency_seconds TYPE = %q, want summary", typ)
	}
}
