package gobad

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - victim selection: the paper argues tail-only candidates plus a heap
//     make eviction O(log N) in the number of caches instead of O(N);
//     BenchmarkAblationVictimSelection measures both implementations.
//   - TTL weighting: eq. (7) weights TTLs by subscriber count; the uniform
//     alternative equalizes them. Measured result: EXP is nearly
//     insensitive to the choice (its expiry order is dominated by
//     insertion time either way) — evidence that the weighting does NOT
//     explain the paper's EXP-performs-worst ranking (see EXPERIMENTS.md).
//   - TTL recompute interval: measured result — the paper's 5-minute
//     choice is well tuned; recomputing every minute chases noisy rate
//     estimates and roughly doubles the budget overshoot.
//   - PUSH vs PULL notification content (Section III).
//   - subscription popularity skew: measured result — in the simulator's
//     regime (budgets far below full OFF-period coverage), skew
//     concentrates pending retrievals on few caches and deep catch-ups
//     miss more, so hit ratio falls slightly with skew; the prototype
//     regime (tiny caches, short sessions) is where Zipf popularity pays,
//     as Fig. 7 shows.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gobad/internal/core"
	"gobad/internal/experiments"
	"gobad/internal/sim"
	"gobad/internal/trace"
)

// BenchmarkAblationVictimSelection measures lazy-heap eviction victim
// selection at a realistic cache count. The O(N) linear scan it replaced
// (EXPERIMENTS.md keeps the measured table) survives only as the heap's
// test oracle in internal/core.
func BenchmarkAblationVictimSelection(b *testing.B) {
	for _, caches := range []int{100, 1000} {
		b.Run(fmt.Sprintf("heap/caches=%d", caches), func(b *testing.B) {
			mgr, err := core.NewManager(core.Config{
				Policy: core.LSCz{},
				Budget: int64(caches) * 8 << 10, // ~half an object per cache
				Fetcher: core.FetcherFunc(func(context.Context, string, time.Duration, time.Duration, bool) ([]*core.Object, error) {
					return nil, nil
				}),
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < caches; i++ {
				mgr.Subscribe(fmt.Sprintf("c%04d", i), "s", 0)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				id := fmt.Sprintf("c%04d", n%caches)
				obj := &core.Object{
					ID:        fmt.Sprintf("o%d", n),
					Timestamp: time.Duration(n+1) * time.Millisecond,
					Size:      16 << 10,
				}
				if err := mgr.Put(id, obj, time.Duration(n)*time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEXPWeighting runs the EXP policy under both TTL
// weightings and reports both hit ratios; the measured gap is small.
func BenchmarkAblationEXPWeighting(b *testing.B) {
	budget := experiments.DefaultBudgets(experiments.DefaultSimBase(50))[2]
	var bySubs, uniform float64
	for n := 0; n < b.N; n++ {
		for _, w := range []struct {
			name      string
			weighting core.TTLWeighting
		}{{"subscribers", core.WeightBySubscribers}, {"uniform", core.WeightUniform}} {
			cfg := experiments.DefaultSimBase(50)
			cfg.Policy = core.EXP{}
			cfg.CacheBudget = budget
			cfg.TTL.Weighting = w.weighting
			res, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if w.weighting == core.WeightBySubscribers {
				bySubs = res.Metrics.HitRatio
			} else {
				uniform = res.Metrics.HitRatio
			}
		}
	}
	b.ReportMetric(bySubs, "EXP_subs_hit")
	b.ReportMetric(uniform, "EXP_uniform_hit")
}

// BenchmarkAblationTTLRecompute compares TTL recompute intervals with the
// same warm-up DefaultTTL, isolating the interval effect: frequent
// recomputation amplifies rate-estimate noise and inflates the overshoot.
func BenchmarkAblationTTLRecompute(b *testing.B) {
	budget := experiments.DefaultBudgets(experiments.DefaultSimBase(50))[2]
	intervals := []time.Duration{time.Minute, 5 * time.Minute}
	overshoot := make([]float64, len(intervals))
	for n := 0; n < b.N; n++ {
		for i, interval := range intervals {
			cfg := experiments.DefaultSimBase(50)
			cfg.Policy = core.TTL{}
			cfg.CacheBudget = budget
			cfg.TTL.RecomputeInterval = interval
			cfg.TTL.DefaultTTL = time.Minute
			res, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			overshoot[i] = res.Metrics.AvgCacheSize / float64(budget)
		}
	}
	b.ReportMetric(overshoot[0], "avg_over_B_1m")
	b.ReportMetric(overshoot[1], "avg_over_B_5m")
}

// BenchmarkAblationPushVsPull replays the same trace under the PULL and
// PUSH notification models and reports the broker's cluster-fetch volume:
// PUSH eliminates the pull round trips for fresh results.
func BenchmarkAblationPushVsPull(b *testing.B) {
	gen := trace.DefaultGenConfig()
	gen.Subscribers = 100
	gen.UniqueSubscriptions = 600
	gen.Duration = 20 * time.Minute
	tr, err := trace.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	var pullMB, pushMB float64
	for n := 0; n < b.N; n++ {
		for _, push := range []bool{false, true} {
			rig, err := experiments.NewRig(experiments.RigConfig{
				Policy:      core.LSC{},
				CacheBudget: 1 << 20,
				Seed:        1,
				PushModel:   push,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := trace.Play(tr, rig); err != nil {
				b.Fatal(err)
			}
			fetched := rig.Broker().Stats().FetchBytes.Value() / (1 << 20)
			if push {
				pushMB = fetched
			} else {
				pullMB = fetched
			}
		}
	}
	b.ReportMetric(pullMB, "PULL_fetchMB")
	b.ReportMetric(pushMB, "PUSH_fetchMB")
}

// BenchmarkAblationZipfSkew varies subscription popularity skew and
// reports the measured hit ratios (see the package comment for the
// direction).
func BenchmarkAblationZipfSkew(b *testing.B) {
	budget := experiments.DefaultBudgets(experiments.DefaultSimBase(50))[1]
	skews := []float64{0, 0.9, 1.3}
	hits := make([]float64, len(skews))
	for n := 0; n < b.N; n++ {
		for i, s := range skews {
			cfg := experiments.DefaultSimBase(50)
			cfg.Policy = core.LSC{}
			cfg.CacheBudget = budget
			cfg.ZipfS = s
			res, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			hits[i] = res.Metrics.HitRatio
		}
	}
	b.ReportMetric(hits[0], "uniform_hit")
	b.ReportMetric(hits[1], "zipf0.9_hit")
	b.ReportMetric(hits[2], "zipf1.3_hit")
}
