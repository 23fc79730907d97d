package gobad

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its artifact at a reduced population scale (the
// full Table II scale is available through cmd/badrepro -scale 1) and
// reports the headline numbers via b.ReportMetric so `go test -bench=.`
// output doubles as a results table.
//
// Scale note: BENCH_SCALE below divides the Table II population; budgets
// scale with it, so the comparative shapes (who wins, by what factor,
// where the crossovers fall) are preserved — see EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gobad/internal/aql"
	"gobad/internal/core"
	"gobad/internal/experiments"
	"gobad/internal/sim"
	"gobad/internal/trace"
	"gobad/internal/workload"
)

// benchScale divides the Table II population for the simulation figures.
const benchScale = 50

// benchBudgetIdx selects the mid-range cache size from the scaled axis.
const benchBudgetIdx = 2

func benchBase(b *testing.B) sim.Config {
	b.Helper()
	cfg := experiments.DefaultSimBase(benchScale)
	cfg.Seed = 1
	return cfg
}

func runSimCell(b *testing.B, p core.Policy, budget int64) sim.Result {
	b.Helper()
	cfg := benchBase(b)
	cfg.Policy = p
	cfg.CacheBudget = budget
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1PolicyDecisions measures victim selection across the
// Table I policies: a full Put+evict cycle against a populated manager.
func BenchmarkTable1PolicyDecisions(b *testing.B) {
	for _, p := range core.AllPolicies() {
		b.Run(p.Name(), func(b *testing.B) {
			mgr, err := core.NewManager(core.Config{
				Policy: p,
				Budget: 1 << 20,
				Fetcher: core.FetcherFunc(func(context.Context, string, time.Duration, time.Duration, bool) ([]*core.Object, error) {
					return nil, nil
				}),
			})
			if err != nil {
				b.Fatal(err)
			}
			// 64 caches with 4 subscribers each.
			for i := 0; i < 64; i++ {
				id := fmt.Sprintf("c%02d", i)
				for s := 0; s < 4; s++ {
					mgr.Subscribe(id, fmt.Sprintf("s%d", s), 0)
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				id := fmt.Sprintf("c%02d", n%64)
				obj := &core.Object{
					ID:        fmt.Sprintf("o%d", n),
					Timestamp: time.Duration(n+1) * time.Millisecond,
					Size:      32 << 10,
				}
				if err := mgr.Put(id, obj, time.Duration(n)*time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2SimulationSetup measures constructing and warming a
// simulator with the Table II settings (population build + first virtual
// minutes).
func BenchmarkTable2SimulationSetup(b *testing.B) {
	cfg := benchBase(b)
	cfg.Policy = core.LSC{}
	cfg.Duration = 5 * time.Minute
	cfg.JoinWindow = time.Minute
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFig3 runs the simulation comparison once per iteration and reports
// the requested per-policy metric.
func benchSimFigure(b *testing.B, metric func(sim.Result) float64, unit string) {
	b.Helper()
	budget := experiments.DefaultBudgets(benchBase(b))[benchBudgetIdx]
	policies := core.AllPolicies()
	results := make(map[string]float64, len(policies))
	for n := 0; n < b.N; n++ {
		for _, p := range policies {
			results[p.Name()] = metric(runSimCell(b, p, budget))
		}
	}
	for name, v := range results {
		b.ReportMetric(v, name+"_"+unit)
	}
}

// BenchmarkFig3HitRatio regenerates Fig. 3(a)'s mid-budget column.
func BenchmarkFig3HitRatio(b *testing.B) {
	benchSimFigure(b, func(r sim.Result) float64 { return r.Metrics.HitRatio }, "hit")
}

// BenchmarkFig3HitByte regenerates Fig. 3(b)'s mid-budget column.
func BenchmarkFig3HitByte(b *testing.B) {
	benchSimFigure(b, func(r sim.Result) float64 { return r.Metrics.HitBytes / (1 << 20) }, "hitMB")
}

// BenchmarkFig3MissByte regenerates Fig. 3(c)'s mid-budget column.
func BenchmarkFig3MissByte(b *testing.B) {
	benchSimFigure(b, func(r sim.Result) float64 { return r.Metrics.MissBytes / (1 << 20) }, "missMB")
}

// BenchmarkFig4Fetch regenerates Fig. 4(a)'s mid-budget column.
func BenchmarkFig4Fetch(b *testing.B) {
	benchSimFigure(b, func(r sim.Result) float64 { return r.Metrics.FetchBytes / (1 << 20) }, "fetchMB")
}

// BenchmarkFig4Latency regenerates Fig. 4(b)'s mid-budget column.
func BenchmarkFig4Latency(b *testing.B) {
	benchSimFigure(b, func(r sim.Result) float64 { return r.Metrics.MeanLatency }, "lat_s")
}

// BenchmarkFig4HoldingTime regenerates Fig. 4(c)'s mid-budget column.
func BenchmarkFig4HoldingTime(b *testing.B) {
	benchSimFigure(b, func(r sim.Result) float64 { return r.Metrics.HoldingTime }, "hold_s")
}

// BenchmarkFig5CacheSize regenerates Fig. 5(a): time-averaged and maximum
// cache sizes plus the sum(rho*T) check for the TTL policy.
func BenchmarkFig5CacheSize(b *testing.B) {
	budget := experiments.DefaultBudgets(benchBase(b))[benchBudgetIdx]
	var ttlAvg, ttlMax, rhoT, lscMax float64
	for n := 0; n < b.N; n++ {
		ttl := runSimCell(b, core.TTL{}, budget)
		lsc := runSimCell(b, core.LSC{}, budget)
		ttlAvg = ttl.Metrics.AvgCacheSize / (1 << 20)
		ttlMax = ttl.Metrics.MaxCacheSize / (1 << 20)
		rhoT = ttl.RhoTTLSum / (1 << 20)
		lscMax = lsc.Metrics.MaxCacheSize / (1 << 20)
	}
	b.ReportMetric(float64(budget)/(1<<20), "budget_MB")
	b.ReportMetric(ttlAvg, "TTL_avg_MB")
	b.ReportMetric(ttlMax, "TTL_max_MB")
	b.ReportMetric(rhoT, "TTL_rhoT_MB")
	b.ReportMetric(lscMax, "LSC_max_MB")
}

// BenchmarkFig5HoldingVsTTL regenerates Fig. 5(b): how closely holding
// times track assigned TTLs under the TTL policy vs LSC.
func BenchmarkFig5HoldingVsTTL(b *testing.B) {
	budget := experiments.DefaultBudgets(benchBase(b))[benchBudgetIdx]
	var ttlGap float64
	var pts int
	for n := 0; n < b.N; n++ {
		res := runSimCell(b, core.TTL{}, budget)
		cell := experiments.Cell{Policy: "TTL", Budget: budget, PerCache: res.PerCache}
		points := experiments.Fig5B(cell)
		ttlGap = experiments.HoldingTTLCorrelation(points)
		pts = len(points)
	}
	b.ReportMetric(ttlGap, "TTL_rel_gap")
	b.ReportMetric(float64(pts), "caches")
}

// prototype trace shared across the Fig. 7 benchmarks.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	gen := trace.DefaultGenConfig()
	gen.Subscribers = 150
	gen.UniqueSubscriptions = 900
	gen.Duration = 30 * time.Minute
	tr, err := trace.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchPrototype(b *testing.B, col experiments.MetricColumn, unit string) {
	b.Helper()
	tr := benchTrace(b)
	budgets := []int64{128 << 10, 1 << 20}
	var sweep *experiments.Sweep
	for n := 0; n < b.N; n++ {
		var err error
		sweep, err = experiments.RunPrototypeSweep(experiments.PrototypeSweepConfig{
			Trace:   tr,
			Budgets: budgets,
			Seed:    1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, byBudget := range sweep.Cells {
		b.ReportMetric(col.Value(byBudget[budgets[0]]), name+"_"+unit)
	}
}

// BenchmarkFig7HitRatio regenerates Fig. 7(a) at the small cache size.
func BenchmarkFig7HitRatio(b *testing.B) {
	benchPrototype(b, experiments.ColHitRatio, "hit")
}

// BenchmarkFig7Latency regenerates Fig. 7(b).
func BenchmarkFig7Latency(b *testing.B) {
	benchPrototype(b, experiments.ColLatency, "lat_s")
}

// BenchmarkFig7BytesFetched regenerates Fig. 7(c).
func BenchmarkFig7BytesFetched(b *testing.B) {
	benchPrototype(b, experiments.ColFetch, "fetchMB")
}

// BenchmarkTable3ChannelMatching measures the Table III emergency channel
// catalog end-to-end: compile every channel and match a publication stream
// against live subscriptions in the data cluster engine.
func BenchmarkTable3ChannelMatching(b *testing.B) {
	rig, err := experiments.NewRig(experiments.RigConfig{
		Policy:      core.LSC{},
		CacheBudget: 1 << 20,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// One subscriber per catalog channel.
	for i, spec := range workload.EmergencyChannels() {
		params := make([]any, len(spec.Params))
		for j, p := range spec.Params {
			switch p {
			case "lat":
				params[j] = workload.CityCenter.Lat
			case "lon":
				params[j] = workload.CityCenter.Lon
			case "radiusKm":
				params[j] = 5.0
			case "etype":
				params[j] = "fire"
			default:
				params[j] = 1.0
			}
		}
		if err := rig.Subscribe(fmt.Sprintf("bench-sub-%d", i), spec.Name, params); err != nil {
			b.Fatal(err)
		}
		if err := rig.Login(fmt.Sprintf("bench-sub-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rig.AdvanceTo(time.Duration(n+1) * time.Second)
		err := rig.Publish("EmergencyReports", map[string]any{
			"etype": "fire", "severity": 3.0,
			"location": map[string]any{
				"lat": workload.CityCenter.Lat, "lon": workload.CityCenter.Lon,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAQLEvaluate measures predicate evaluation, the data cluster's
// per-publication matching cost.
func BenchmarkAQLEvaluate(b *testing.B) {
	q, err := aql.ParseQuery(
		"select * from EmergencyReports r where r.etype = $etype and " +
			"geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radiusKm")
	if err != nil {
		b.Fatal(err)
	}
	records := []map[string]any{{
		"etype": "fire", "severity": 3.0,
		"location": map[string]any{"lat": 33.69, "lon": -117.82},
	}}
	params := map[string]any{
		"etype": "fire", "lat": 33.68, "lon": -117.83, "radiusKm": 5.0,
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := aql.RunQuery(q, records, params); err != nil {
			b.Fatal(err)
		}
	}
}
