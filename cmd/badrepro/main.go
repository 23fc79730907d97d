// Command badrepro regenerates the paper's evaluation artifacts: the
// simulation figures of Section V (Fig. 3a-c, 4a-c, 5a-b) and the
// prototype figures of Section VI (Fig. 7a-c), printing one text table per
// sub-figure (rows = policies, columns = cache sizes).
//
// Usage:
//
//	badrepro -fig all                 # everything (minutes at scale 20)
//	badrepro -fig fig3 -scale 10      # Fig. 3 at 1/10 population scale
//	badrepro -fig fig7 -runs 1        # prototype sweep
//	badrepro -fig fig5b               # holding-time vs TTL comparison
//
// -scale 1 runs the full Table II population (10000 subscribers, 1000
// backend subscriptions, six simulated hours — expect long runtimes).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gobad/internal/experiments"
	"gobad/internal/metrics"
	"gobad/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: fig3|fig4|fig5a|fig5b|fig7|all")
	scale := flag.Float64("scale", 20, "population down-scale factor for the simulation figures (1 = full Table II)")
	runs := flag.Int("runs", 3, "independent runs averaged per data point (the paper uses 10)")
	seed := flag.Int64("seed", 1, "master random seed")
	csvDir := flag.String("csv", "", "also write each simulation figure as CSV into this directory")
	flag.Parse()

	if err := run(*fig, *scale, *runs, *seed, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "badrepro:", err)
		os.Exit(1)
	}
}

func run(fig string, scale float64, runs int, seed int64, csvDir string) error {
	start := time.Now()
	want := func(name string) bool { return fig == "all" || fig == name }

	var simSweep *experiments.Sweep
	needSim := want("fig3") || want("fig4") || want("fig5a") || want("fig5b")
	if needSim {
		base := experiments.DefaultSimBase(scale)
		base.Seed = seed
		budgets := experiments.DefaultBudgets(base)
		fmt.Printf("# simulation sweep: %d subscribers, %d backend subscriptions, %v virtual, %d runs/point, budgets %s..%s\n",
			base.Subscribers, base.BackendSubs, base.Duration, runs,
			metrics.FormatBytes(float64(budgets[0])), metrics.FormatBytes(float64(budgets[len(budgets)-1])))
		var err error
		simSweep, err = experiments.RunSimSweep(experiments.SimSweepConfig{
			Base:    base,
			Budgets: budgets,
			Runs:    runs,
		})
		if err != nil {
			return err
		}
	}

	if csvDir != "" && simSweep != nil {
		if err := writeCSVs(csvDir, simSweep); err != nil {
			return err
		}
		fmt.Printf("# CSVs written to %s\n", csvDir)
	}

	if want("fig3") {
		fmt.Println(simSweep.FormatTable("Fig 3(a)", experiments.ColHitRatio))
		fmt.Println(simSweep.FormatTable("Fig 3(b)", experiments.ColHitByte))
		fmt.Println(simSweep.FormatTable("Fig 3(c)", experiments.ColMissByte))
	}
	if want("fig4") {
		fmt.Println(simSweep.FormatTable("Fig 4(a)", experiments.ColFetch))
		fmt.Printf("Fig 4(a) 'Vol' baseline: %.1f MB (produced by the data cluster, pulled by every policy)\n\n",
			simSweep.Vol/(1<<20))
		fmt.Println(simSweep.FormatTable("Fig 4(b)", experiments.ColLatency))
		fmt.Println(simSweep.FormatTable("Fig 4(c)", experiments.ColHolding))
	}
	if want("fig5a") {
		fmt.Println(simSweep.FormatTable("Fig 5(a) time-averaged", experiments.ColAvgSize))
		fmt.Println(simSweep.FormatTable("Fig 5(a) maximum", experiments.ColMaxSize))
		mid := simSweep.Budgets[len(simSweep.Budgets)/2]
		ttlCell := simSweep.Cells["TTL"][mid]
		fmt.Printf("Fig 5(a) sum(rho_i*T_i) at B=%s: %.1f MB (should track B=%.1f MB)\n\n",
			metrics.FormatBytes(float64(mid)), ttlCell.RhoTTLSum/(1<<20), float64(mid)/(1<<20))
	}
	if want("fig5b") {
		mid := simSweep.Budgets[len(simSweep.Budgets)/2]
		fmt.Printf("Fig 5(b) — per-cache |holding - TTL| / TTL at B=%s (lower = holding matches TTL)\n",
			metrics.FormatBytes(float64(mid)))
		for _, pol := range []string{"TTL", "LSC"} {
			pts := experiments.Fig5B(simSweep.Cells[pol][mid])
			corr := experiments.HoldingTTLCorrelation(pts)
			fmt.Printf("%-8s mean relative gap %.3f over %d caches\n", pol, corr, len(pts))
		}
		// A few sample points for the scatter.
		pts := experiments.Fig5B(simSweep.Cells["TTL"][mid])
		sort.Slice(pts, func(i, j int) bool { return pts[i].TTLSeconds < pts[j].TTLSeconds })
		fmt.Println("sample (ttl_s, holding_s) points for TTL policy:")
		step := len(pts)/10 + 1
		for i := 0; i < len(pts); i += step {
			fmt.Printf("  %8.1f %8.1f\n", pts[i].TTLSeconds, pts[i].HoldingMean)
		}
		fmt.Println()
	}

	if want("fig7") {
		gen := trace.DefaultGenConfig()
		gen.Seed = seed
		tr, err := trace.Generate(gen)
		if err != nil {
			return err
		}
		fmt.Printf("# prototype sweep: %d subscribers, %d activities, %v trace\n",
			gen.Subscribers, tr.Len(), gen.Duration)
		budgets := []int64{100 << 10, 500 << 10, 2 << 20, 10 << 20}
		protoSweep, err := experiments.RunPrototypeSweep(experiments.PrototypeSweepConfig{
			Trace:   tr,
			Budgets: budgets,
			Seed:    seed,
		})
		if err != nil {
			return err
		}
		fmt.Println(protoSweep.FormatTable("Fig 7(a)", experiments.ColHitRatio))
		fmt.Println(protoSweep.FormatTable("Fig 7(b)", experiments.ColLatency))
		fmt.Println(protoSweep.FormatTable("Fig 7(c)", experiments.ColFetch))
		fmt.Printf("subscription suppression: %d frontend -> %d backend subscriptions\n\n",
			protoSweep.FrontendSubs, protoSweep.BackendSubs)
	}

	if !strings.Contains("fig3 fig4 fig5a fig5b fig7 all", fig) {
		return fmt.Errorf("unknown figure %q", fig)
	}
	fmt.Printf("# done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeCSVs dumps one CSV per simulation sub-figure.
func writeCSVs(dir string, sweep *experiments.Sweep) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]experiments.MetricColumn{
		"fig3a_hit_ratio.csv":      experiments.ColHitRatio,
		"fig3b_hit_byte.csv":       experiments.ColHitByte,
		"fig3c_miss_byte.csv":      experiments.ColMissByte,
		"fig4a_fetch.csv":          experiments.ColFetch,
		"fig4b_latency.csv":        experiments.ColLatency,
		"fig4c_holding.csv":        experiments.ColHolding,
		"fig5a_avg_cache_size.csv": experiments.ColAvgSize,
		"fig5a_max_cache_size.csv": experiments.ColMaxSize,
	}
	for name, col := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(sweep.FormatCSV(col)), 0o644); err != nil {
			return err
		}
	}
	return nil
}
