package bdms

import (
	"fmt"
	"testing"
)

// benchEvalCluster builds a cluster with subs subscriptions spread over
// sigs distinct parameter signatures on one continuous channel. The body
// has no equality conjunct, so every signature group is a candidate on
// every ingest — the worst case the group rework targets: cost per record
// scales with G (signatures), where the per-subscription engine scaled
// with S.
func benchEvalCluster(b *testing.B, subs, sigs int) *Cluster {
	b.Helper()
	c := NewCluster()
	if err := c.CreateDataset("DS", Schema{}); err != nil {
		b.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{
		Name: "Ch", Params: []string{"k", "min"},
		Body: "select * from DS r where contains(r.k, $k) and r.v >= $min",
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < subs; i++ {
		sig := i % sigs
		if _, err := c.Subscribe("Ch", []any{fmt.Sprintf("key-%04d", sig), float64(sig % 5)}, ""); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// benchGeoCluster is the live benchmark's eval_wide workload in process:
// the same channel body, and 2000 signatures on the same grid — 200 cells
// 0.02 degrees apart on a 20x10 grid, each with ten severity thresholds
// and a 0.5 km radius — one subscription per signature. No equality
// conjunct, so every group is scanned on every ingest.
func benchGeoCluster(b *testing.B) *Cluster {
	b.Helper()
	c := NewCluster()
	if err := c.CreateDataset("Pubs", Schema{}); err != nil {
		b.Fatal(err)
	}
	if err := c.DefineChannel(ChannelDef{
		Name: "WideAlerts", Params: []string{"minSeverity", "lat", "lon", "radiusKm"},
		Body: "select * from Pubs r where r.severity >= $minSeverity and " +
			"geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radiusKm",
	}); err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 2000; j++ {
		lat, lon := geoCell(j / 10)
		if _, err := c.Subscribe("WideAlerts", []any{float64(j%10 + 1), lat, lon, 0.5}, ""); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func geoCell(cell int) (lat, lon float64) {
	return 33.5 + 0.02*float64(cell/20), -118.0 + 0.02*float64(cell%20)
}

// geoRecord is publication n of the geo benchmark: within 0.001 degrees
// of a cell centre, severity 1..10, so it matches that cell's signatures
// whose threshold is at most its severity (5.5 on average).
func geoRecord(n int) map[string]any {
	lat, lon := geoCell(n * 7 % 200)
	return map[string]any{
		"id": float64(n), "severity": float64(n%10 + 1),
		"location": map[string]any{"lat": lat + 0.0007, "lon": lon - 0.0004},
	}
}

// BenchmarkIngestEval measures single-record ingest through continuous
// matching: across a subscriptions × signatures grid with a string
// predicate, and with eval_wide's geo predicate over 2000 signatures.
// evals/rec reports how many channel evaluations each publication cost —
// with grouping it equals the number of signature groups, not the number
// of subscriptions.
func BenchmarkIngestEval(b *testing.B) {
	b.Run("geo/sigs=2000", func(b *testing.B) {
		c := benchGeoCluster(b)
		g0 := c.Stats().EvalGroups.Value()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := c.Ingest("Pubs", geoRecord(n)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric((c.Stats().EvalGroups.Value()-g0)/float64(b.N), "evals/rec")
	})
	for _, grid := range []struct{ subs, sigs int }{
		{1000, 10},
		{10000, 100},
		{10000, 1000},
	} {
		b.Run(fmt.Sprintf("subs=%d/sigs=%d", grid.subs, grid.sigs), func(b *testing.B) {
			c := benchEvalCluster(b, grid.subs, grid.sigs)
			g0 := c.Stats().EvalGroups.Value()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				_, err := c.Ingest("DS", map[string]any{
					"k": fmt.Sprintf("key-%04d", n%grid.sigs), "v": float64(n % 10),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric((c.Stats().EvalGroups.Value()-g0)/float64(b.N), "evals/rec")
		})
	}
}

// BenchmarkIngestEvalBatch is the batch path: 32 records per IngestBatch
// amortize the lock, WAL flush and group evaluations over the batch.
// ns/op is per record (b.N counts records).
func BenchmarkIngestEvalBatch(b *testing.B) {
	const batchSize = 32
	c := benchEvalCluster(b, 10000, 100)
	g0 := c.Stats().EvalGroups.Value()
	batch := make([]map[string]any, batchSize)
	b.ResetTimer()
	for n := 0; n < b.N; n += batchSize {
		for i := range batch {
			batch[i] = map[string]any{
				"k": fmt.Sprintf("key-%04d", (n+i)%100), "v": float64((n + i) % 10),
			}
		}
		if _, err := c.IngestBatch("DS", batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((c.Stats().EvalGroups.Value()-g0)/float64(b.N), "evals/rec")
}
