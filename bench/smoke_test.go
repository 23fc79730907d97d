package main

import (
	"io"
	"math"
	"sort"
	"testing"
	"time"
)

// smokeRun runs one workload with a 1 s window and a single set-up. It
// asserts correctness only — never a timing — so it holds on any machine
// and at any GOMAXPROCS (go test -cpu 1,2,4).
func smokeRun(t *testing.T, w workloadSpec, trace bool) *runResult {
	t.Helper()
	dir := t.TempDir()
	res, err := run(runConfig{workload: w, seed: 7, window: time.Second, slices: defaultSlices,
		trace: trace, setups: 1, workDir: dir, dumpDir: dir, log: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if res.verdict.Attempted == 0 || res.verdict.Failed != 0 {
		t.Fatalf("%s: %d of %d deliveries failed: %s", w.name, res.verdict.Failed, res.verdict.Attempted, res.verdict.FirstFailure)
	}
	for name, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("%s: metric %s = %v %q", w.name, name, m.Value, m.Unit)
		}
	}
	return res
}

func names(metrics map[string]Metric) []string {
	out := make([]string, 0, len(metrics))
	for name := range metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// sameNames fails unless printed and declared hold the same names.
func sameNames(t *testing.T, workload string, printed, declared []string) {
	t.Helper()
	want := make(map[string]bool, len(declared))
	for _, name := range declared {
		want[name] = true
	}
	for _, name := range printed {
		if !want[name] {
			t.Errorf("%s prints %s, which BENCHMARK.json does not name", workload, name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s does not print %s, which BENCHMARK.json names", workload, name)
	}
}

// TestSmoke: every workload delivers everything and reports exactly the
// end-to-end metrics BENCHMARK.json declares, all finite.
func TestSmoke(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range c.EndToEnd {
		declared = append(declared, m.Name)
	}
	if len(declared) != 11 {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, want 11", len(declared))
	}
	for _, w := range workloads {
		res := smokeRun(t, w, false)
		sameNames(t, w.name, names(res.metrics), declared)
		for _, m := range c.EndToEnd {
			if got := res.metrics[m.Name].Unit; got != m.Unit {
				t.Errorf("%s: %s printed in %q, declared in %q", w.name, m.Name, got, m.Unit)
			}
		}
	}
}

// TestTracedCatalogue: the traced run of every workload prints exactly the
// per-layer metrics BENCHMARK.json declares and writes a span dump.
func TestTracedCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("four traced runs with their probes")
	}
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range c.PerLayer {
		declared = append(declared, m.Name)
		if !validMetricName(m.Name) {
			t.Errorf("BENCHMARK.json names %q", m.Name)
		}
	}
	for _, w := range workloads {
		res := smokeRun(t, w, true)
		sameNames(t, w.name, names(res.metrics), declared)
		for _, m := range c.PerLayer {
			if got := res.metrics[m.Name].Unit; got != m.Unit {
				t.Errorf("%s: %s printed in %q, declared in %q", w.name, m.Name, got, m.Unit)
			}
		}
		if res.spanDump == "" {
			t.Errorf("%s: no span dump", w.name)
		}
	}
}

// TestContractWorkloads: BENCHMARK.json and the benchmark name the same
// workloads with the same reasons.
func TestContractWorkloads(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestPlansRepeat: the same seed gives the same inputs, another seed
// others.
func TestPlansRepeat(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.build(3, 2*time.Second), w.build(3, 2*time.Second), w.build(4, 2*time.Second)
		if len(a.events) == 0 || len(a.events) != len(b.events) {
			t.Fatalf("%s: %d and %d events for one seed", w.name, len(a.events), len(b.events))
		}
		same := len(a.events) == len(other.events)
		for i := range a.events {
			if a.events[i].Due != b.events[i].Due || a.events[i].Records[0]["padding"] != b.events[i].Records[0]["padding"] {
				t.Fatalf("%s: event %d differs between two builds of one seed", w.name, i)
			}
			if same && a.events[i].Records[0]["padding"] != other.events[i].Records[0]["padding"] {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w.name)
		}
	}
}
