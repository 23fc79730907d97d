// Command bench is the live-stack delivery benchmark: it starts the whole
// loopback deployment in one process, drives one workload open loop at a
// fixed rate from a seeded schedule, checks every delivery against an
// oracle and prints the metrics BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// buildDir is where the benchmark keeps everything it writes: WAL
// directories of the stacks it starts and the span dump.
const buildDir = ".bench_build"

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: fanout_hot, eval_wide, churn_miss or burst_batch")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Int("seconds", 24, "length of the measured window in seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare them")
	)
	flag.Parse()
	// The rates are sized for two processors; more would only change how
	// the runtime schedules the same work.
	runtime.GOMAXPROCS(2)

	if *selfcheck > 0 {
		if err := selfCheck(os.Stdout, *selfcheck, *seconds, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	spec, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	workDir, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		workload: spec, seed: *seed, window: time.Duration(*seconds) * time.Second,
		slices: defaultSlices, trace: *trace == 1, setups: defaultSetups,
		workDir: workDir, dumpDir: buildDir, log: os.Stdout, guards: true,
	}
	stamp(os.Stdout, cfg)
	res, err := run(cfg)
	_ = os.RemoveAll(workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if res.spanDump != "" {
		fmt.Println("span dump:", res.spanDump)
	}
	line := resultLine{Correct: res.verdict.Failed == 0, Attempted: res.verdict.Attempted,
		Failed: res.verdict.Failed, Metrics: res.metrics}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

// scratchDir makes this process's directory under buildDir; the span dump
// goes to buildDir itself, so it outlives the run.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "run-")
}

// stamp prints the environment a result was measured in.
func stamp(out io.Writer, cfg runConfig) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env, _ := json.Marshal(map[string]any{
		"workload": cfg.workload.name, "seed": cfg.seed, "trace": cfg.trace,
		"window_s": cfg.window.Seconds(), "slice_s": (cfg.window / time.Duration(cfg.slices)).Seconds(),
		"setups": cfg.setups, "gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"pool": poolSize(), "go": runtime.Version(), "commit": commit,
	})
	fmt.Fprintf(out, "env %s\n", env)
}

// contract is the part of BENCHMARK.json the benchmark reads back: the
// metric names it must print and the bounds -selfcheck holds them to.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadContract reads BENCHMARK.json from the repository root, which is
// the working directory of a benchmark run and the parent of a test's.
func loadContract() (*contract, error) {
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var c contract
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found")
}
