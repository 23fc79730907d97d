// Command badsoak runs the session-hub soak harness (`make soak`): it
// stands up N simulated WebSocket sessions with Zipf-skewed subscription
// interest plus churn, drives a dispatch phase, and writes the
// measurements as a benchjson report (the BENCH_fanout.json format), one
// entry per session count. The committed BENCH_soak.json is its output at
// 10k and 100k sessions; cmd/benchguard gates regressions against it.
//
// Usage:
//
//	badsoak -sessions 10000,100000 -out BENCH_soak.json
//	badsoak -sessions 10000 -out .soak_check.json   # CI-sized check run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gobad/internal/broker"
)

type benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package"`
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type report struct {
	Note        string            `json:"note"`
	Environment map[string]string `json:"environment"`
	Benchmarks  []benchmark       `json:"benchmarks"`
}

func main() {
	sessions := flag.String("sessions", "10000,100000", "comma-separated session counts to soak")
	subsPool := flag.Int("subs", 1000, "backend subscription pool size")
	zipfS := flag.Float64("zipf", 0.9, "Zipf skew of interest assignment and event traffic")
	events := flag.Int("events", 2000, "dispatch events per run")
	churn := flag.Float64("churn", 0.1, "fraction of sessions churned before dispatch")
	seed := flag.Int64("seed", 1, "RNG seed")
	out := flag.String("out", "BENCH_soak.json", "output report path (- for stdout)")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	counts, err := parseCounts(*sessions)
	if err != nil {
		fatal(err)
	}

	rep := report{
		Note: fmt.Sprintf("Session-hub soak: pooled writers over the interest-keyed index; "+
			"%d backend subs, zipf s=%.2f, %d events, %.0f%% churn, seed %d. "+
			"Regenerate with `make soak`. With sessions and events drawn from sync.Pools "+
			"(deleted; GC-owned since) the 10k run read 5.7 allocs/event.",
			*subsPool, *zipfS, *events, *churn*100, *seed),
		Environment: map[string]string{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"numcpu":     strconv.Itoa(runtime.NumCPU()),
			"go":         runtime.Version(),
		},
	}

	for _, n := range counts {
		progress := func(format string, args ...any) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "badsoak[%d]: %s\n", n, fmt.Sprintf(format, args...))
			}
		}
		start := time.Now()
		res, err := broker.RunSoak(broker.SoakConfig{
			Sessions:      n,
			BackendSubs:   *subsPool,
			ZipfS:         *zipfS,
			Events:        *events,
			ChurnFraction: *churn,
			Seed:          *seed,
			Progress:      progress,
		})
		if err != nil {
			fatal(err)
		}
		progress("done in %v: rss/session=%.0fB p99-dispatch=%v allocs/op=%.1f",
			time.Since(start).Round(time.Millisecond), res.RSSPerSession,
			res.DispatchP99, res.AllocsPerOp)
		rep.Benchmarks = append(rep.Benchmarks, benchmark{
			Name:       fmt.Sprintf("Soak/sessions=%d", n),
			Package:    "gobad/internal/broker",
			Iterations: res.Events,
			Metrics: map[string]float64{
				"connections":        float64(res.Sessions),
				"rss-bytes/session":  res.RSSPerSession,
				"heap-bytes/session": res.HeapPerSession,
				"p50-dispatch-ns":    float64(res.DispatchP50),
				"p99-dispatch-ns":    float64(res.DispatchP99),
				"allocs/op":          res.AllocsPerOp,
				"goroutines":         float64(res.Goroutines),
				"frames":             float64(res.Frames),
			},
		})
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "badsoak: wrote %s (%d runs)\n", *out, len(counts))
	}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("badsoak: bad session count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("badsoak: no session counts given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "badsoak:", err)
	os.Exit(1)
}
