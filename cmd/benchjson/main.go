// Command benchjson converts `go test -bench` output on stdin into a JSON
// document, so benchmark runs can be committed and diffed (see `make
// bench-json`, which maintains BENCH_fanout.json).
//
// Each benchmark line of the form
//
//	BenchmarkFanout-8   200   183098 ns/op   69590 B/op   56 allocs/op
//
// becomes {"name": "BenchmarkFanout", "iterations": 200, "metrics":
// {"ns/op": 183098, ...}}; custom b.ReportMetric units pass through
// unchanged. Non-benchmark lines are ignored, except goos/goarch/pkg/cpu
// headers, which are captured into the environment block. The block also
// says what the numbers were measured on: gomaxprocs (the -N suffix go
// test puts on benchmark names; none means 1), numcpu and the Go version
// of this process, which `go run` builds with the toolchain that ran the
// benchmarks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

type benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type report struct {
	Note        string            `json:"note,omitempty"`
	Environment map[string]string `json:"environment,omitempty"`
	Benchmarks  []benchmark       `json:"benchmarks"`
}

func main() {
	note := flag.String("note", "", "free-form note embedded in the output (e.g. what baseline this run is compared against)")
	flag.Parse()

	rep := report{Note: *note, Environment: map[string]string{
		"numcpu": strconv.Itoa(runtime.NumCPU()),
		"go":     runtime.Version(),
	}}
	pkg := ""
	var procs []string // distinct GOMAXPROCS values, first seen first
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			rep.Environment[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "pkg:"):
			_, v, _ := strings.Cut(line, ":")
			pkg = strings.TrimSpace(v)
		case strings.HasPrefix(line, "Benchmark"):
			if b, p, ok := parseBench(line); ok {
				b.Package = pkg
				merge(&rep, b)
				if !slices.Contains(procs, p) {
					procs = append(procs, p)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	rep.Environment["gomaxprocs"] = strings.Join(procs, ",")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// merge folds a run into the report, best-of-N per metric when the same
// benchmark appears multiple times (-count>1): the minimum survives, so a
// cold first run (pool warm-up, page faults) does not misrepresent the
// steady state. This is the same convention cmd/benchguard compares with.
func merge(rep *report, b benchmark) {
	for i := range rep.Benchmarks {
		prev := &rep.Benchmarks[i]
		if prev.Name != b.Name || prev.Package != b.Package {
			continue
		}
		for unit, v := range b.Metrics {
			if old, ok := prev.Metrics[unit]; !ok || v < old {
				prev.Metrics[unit] = v
			}
		}
		return
	}
	rep.Benchmarks = append(rep.Benchmarks, b)
}

// parseBench decodes one result line: name, iteration count, then
// value/unit pairs. procs is the GOMAXPROCS the line ran at.
func parseBench(line string) (b benchmark, procs string, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchmark{}, "", false
	}
	name, procs := fields[0], "1"
	// Strip the -GOMAXPROCS suffix; it is environment, not identity.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], name[i+1:]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, "", false
	}
	b = benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, "", false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, procs, len(b.Metrics) > 0
}
