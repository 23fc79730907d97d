package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// selfCheck answers the question a benchmark must answer before it may
// judge anything else: do two sets of runs of the same code agree? It runs
// sets A and B of n runs per workload, interleaved (A1 B1 A2 B2 ...), every
// run a fresh process with its own seed, and compares the sets' medians
// against each metric's bound from BENCHMARK.json.
func selfCheck(out io.Writer, n, seconds int, firstSeed int64) error {
	c, err := loadContract()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	seed := firstSeed
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				metrics, err := runChild(exe, w.name, seed, seconds)
				seed++
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed-1, err)
				}
				for name, m := range metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Fprintf(out, "\n%s: two sets of %d runs, %d s windows\n", w.name, n, seconds)
		fmt.Fprintf(out, "%-30s %-6s %32s %32s %8s %8s %8s\n", "metric", "bound",
			"A min / median / max", "B min / median / max", "spreadA", "spreadB", "shift/b")
		for _, m := range c.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			// Positive shift: set B is worse than set A.
			shift := (mb - ma) / ma
			if m.Better == "higher" {
				shift = -shift
			}
			verdict := ""
			if shift/m.Bound > 1 || (m.Name != "setup_s" && (iqrShare(a) > m.Bound || iqrShare(b) > m.Bound)) {
				verdict, failed = "  FAIL", true
			}
			fmt.Fprintf(out, "%-30s %-6.3g %32s %32s %8.4f %8.4f %8.3f%s\n", m.Name, m.Bound,
				minMedMax(a), minMedMax(b), iqrShare(a), iqrShare(b), shift/m.Bound, verdict)
		}
	}
	if failed {
		return fmt.Errorf("selfcheck: a metric moved or spread by more than its bound between two sets of runs of the same code")
	}
	return nil
}

// runChild runs one benchmark process and parses its result line.
func runChild(exe, workload string, seed int64, seconds int) (map[string]Metric, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d deliveries failed", res.Failed, res.Attempted)
	}
	return res.Metrics, nil
}

func minMedMax(xs []float64) string {
	s := sortedCopy(xs)
	return fmt.Sprintf("%.4g / %.4g / %.4g", s[0], percentile(s, 0.5), s[len(s)-1])
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4)
// (exclusive method), which is what the benchmark's acceptance uses.
func iqrShare(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1 // zero-based position of the k-th quartile
		lo := int(pos)
		switch {
		case pos < 0:
			return s[0]
		case lo >= n-1:
			return s[n-1]
		}
		frac := pos - float64(lo)
		return s[lo] + (s[lo+1]-s[lo])*frac
	}
	return (q(3) - q(1)) / percentile(s, 0.5)
}
