// Command benchguard compares `go test -bench` output on standard input
// against committed baselines (BENCH_fanout.json, BENCH_soak.json,
// BENCH_eval.json) and fails when any guarded metric regressed beyond its
// tolerance. It is the CI guard that keeps the fan-out hot path, the
// session-hub soak and the grouped evaluation honest (see `make
// bench-guard`).
//
// Each -guard flag declares one guarded benchmark:
//
//	-guard 'baseline=BENCH_fanout.json;bench=BenchmarkFanout;metrics=ns/op:0.05,allocs/op:0.10'
//	-guard 'baseline=BENCH_soak.json;bench=BenchmarkSoak/sessions=10000;metrics=p99-dispatch-ns:0.50'
//
// The current value of a metric is the best of the result lines stdin
// holds for the benchmark (best-of-N when -count>1, damping scheduler
// noise without hiding a real regression). metrics lists metric:tolerance
// pairs, where tolerance is the allowed fractional increase over the
// baseline (all guarded metrics are lower-is-better).
//
// Every guard is evaluated and every metric printed as a diff row before
// the verdict, so one run shows the full picture instead of stopping at
// the first mismatch. A missing baseline entry, metric or result is a
// failure: a guard that silently guards nothing is worse than no guard.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type benchmark struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

type report struct {
	Benchmarks []benchmark `json:"benchmarks"`
}

// guard is one parsed -guard spec.
type guard struct {
	baseline string
	bench    string
	metrics  []metricSpec
}

type metricSpec struct {
	name      string
	tolerance float64
}

// row is one evaluated metric comparison.
type row struct {
	bench     string
	metric    string
	current   float64
	baseline  float64
	tolerance float64
	err       string // non-empty when the metric could not be resolved
}

func (r row) delta() float64 { return r.current/r.baseline - 1 }

func (r row) failed() bool {
	if r.err != "" {
		return true
	}
	if r.baseline <= 0 {
		// A zero baseline (e.g. 0 allocs/op) makes a ratio meaningless;
		// the tolerance is read as an absolute allowance instead.
		return r.current > r.tolerance
	}
	return r.delta() > r.tolerance
}

func main() {
	var specs []string
	flag.Func("guard", "guard spec: baseline=FILE;bench=NAME;metrics=name:tol,...  (repeatable)", func(s string) error {
		specs = append(specs, s)
		return nil
	})
	flag.Parse()
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no -guard specs given")
		os.Exit(2)
	}

	guards := make([]guard, 0, len(specs))
	for _, s := range specs {
		g, err := parseGuard(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		guards = append(guards, g)
	}

	results, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: reading stdin:", err)
		os.Exit(1)
	}

	var rows []row
	for _, g := range guards {
		rows = append(rows, evaluate(g, results)...)
	}

	printTable(rows)
	failures := 0
	for _, r := range rows {
		if r.failed() {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d metric(s) regressed or unresolved\n", failures)
		os.Exit(1)
	}
	fmt.Printf("benchguard: all %d metric(s) within tolerance\n", len(rows))
}

// parseGuard parses one -guard spec. Fields are ';'-separated key=value
// pairs (split on the first '=', so bench names may contain '=').
func parseGuard(spec string) (guard, error) {
	var g guard
	for _, field := range strings.Split(spec, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return g, fmt.Errorf("bad guard field %q (want key=value)", field)
		}
		switch key {
		case "baseline":
			g.baseline = val
		case "bench":
			g.bench = val
		case "metrics":
			for _, m := range strings.Split(val, ",") {
				name, tol, ok := strings.Cut(strings.TrimSpace(m), ":")
				if !ok {
					return g, fmt.Errorf("bad metric spec %q (want name:tolerance)", m)
				}
				t, err := strconv.ParseFloat(tol, 64)
				if err != nil || t < 0 {
					return g, fmt.Errorf("bad tolerance in %q", m)
				}
				g.metrics = append(g.metrics, metricSpec{name: name, tolerance: t})
			}
		default:
			return g, fmt.Errorf("unknown guard field %q", key)
		}
	}
	if g.baseline == "" || g.bench == "" || len(g.metrics) == 0 {
		return g, fmt.Errorf("guard %q needs baseline=, bench= and metrics=", spec)
	}
	return g, nil
}

// evaluate resolves one guard's baseline and current values into rows,
// one per guarded metric. Resolution failures become failing rows rather
// than aborting, so the final table is complete.
func evaluate(g guard, results map[string]map[string]float64) []row {
	rows := make([]row, 0, len(g.metrics))
	base, baseErr := loadBench(g.baseline, g.bench)
	cur := results[g.bench]

	for _, m := range g.metrics {
		r := row{bench: g.bench, metric: m.name, tolerance: m.tolerance}
		switch {
		case baseErr != nil:
			r.err = baseErr.Error()
		case cur == nil:
			r.err = "no result line on stdin"
		default:
			var ok bool
			if r.baseline, ok = base[m.name]; !ok {
				r.err = fmt.Sprintf("baseline %s has no %q metric", g.baseline, m.name)
			} else if r.current, ok = cur[m.name]; !ok {
				r.err = fmt.Sprintf("current result has no %q metric", m.name)
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// loadBench reads one benchmark's metrics from a benchjson report file.
func loadBench(path, bench string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, b := range rep.Benchmarks {
		if b.Name == bench {
			return b.Metrics, nil
		}
	}
	return nil, fmt.Errorf("%s has no entry for %s", path, bench)
}

// parseBenchOutput scans `go test -bench` text and returns, per benchmark
// name (modulo the -GOMAXPROCS suffix), the minimum observed value of each
// reported metric — best-of-N when -count>1.
func parseBenchOutput(f *os.File) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(strings.TrimSpace(sc.Text()))
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := out[name]
		if m == nil {
			m = map[string]float64{}
			out[name] = m
		}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if prev, ok := m[unit]; !ok || v < prev {
				m[unit] = v
			}
		}
	}
	return out, sc.Err()
}

// printTable renders every evaluated metric as one diff row.
func printTable(rows []row) {
	fmt.Printf("%-28s %-20s %14s %14s %9s %9s  %s\n",
		"benchmark", "metric", "current", "baseline", "delta", "tol", "status")
	for _, r := range rows {
		if r.err != "" {
			fmt.Printf("%-28s %-20s %14s %14s %9s %9s  FAIL (%s)\n",
				r.bench, r.metric, "-", "-", "-", "-", r.err)
			continue
		}
		status := "ok"
		if r.failed() {
			status = "FAIL"
		}
		if r.baseline <= 0 {
			fmt.Printf("%-28s %-20s %14.1f %14.1f %9s %9.1f  %s (absolute)\n",
				r.bench, r.metric, r.current, r.baseline, "-", r.tolerance, status)
			continue
		}
		fmt.Printf("%-28s %-20s %14.1f %14.1f %+8.1f%% %8.1f%%  %s\n",
			r.bench, r.metric, r.current, r.baseline, r.delta()*100, r.tolerance*100, status)
	}
}
