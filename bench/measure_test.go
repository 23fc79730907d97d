package main

import (
	"math"
	"syscall"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianOfSlices(t *testing.T) {
	nan := math.NaN()
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"odd count: the middle slice", []float64{5, 1, 3}, 3},
		{"even count: between the two middle slices", []float64{1, 2, 3, 10}, 2.5},
		{"one noisy slice does not move the run", []float64{1.0, 1.1, 0.9, 1.0, 50, 1.05}, 1.025},
		{"slices without a value are left out", []float64{nan, 2, nan, 4, 6}, 4},
		{"infinite slices are left out", []float64{math.Inf(1), 2, 4}, 3},
	}
	for _, tc := range tests {
		if got := medianOfSlices(tc.in); !near(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := medianOfSlices([]float64{nan, nan}); !math.IsNaN(got) {
		t.Errorf("no slice has a value: got %v, want NaN", got)
	}
}

func TestQuantilePerSlice(t *testing.T) {
	slicedQuantile := func(at []time.Duration, value []float64, q float64, sliceLen time.Duration, slices int) float64 {
		return medianOfSlices(quantilePerSlice(at, value, q, sliceLen, slices))
	}
	sec := time.Second
	at := []time.Duration{0, sec / 2, sec, sec + sec/2, 2 * sec, 2*sec + 1, -sec, 3 * sec}
	val := []float64{1, 3, 10, 30, 100, 300, 7777, 9999}
	// Slices of 1 s: {1,3} {10,30} {100,300}; the sample before the window
	// and the one after it are ignored.
	if got := slicedQuantile(at, val, 0.5, sec, 3); !near(got, 20) {
		t.Errorf("median slice of the medians: got %v, want 20", got)
	}
	if got := slicedQuantile(at, val, 1, sec, 3); !near(got, 30) {
		t.Errorf("median slice of the maxima: got %v, want 30", got)
	}
	// An empty slice has no quantile and is left out.
	if got := slicedQuantile(at[:4], val[:4], 0.5, sec, 3); !near(got, 11) {
		t.Errorf("with an empty slice: got %v, want 11", got)
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	tests := []struct {
		n     int
		wantQ float64
	}{
		{5, 1},       // no tail: the maximum
		{99, 1},      // 99 x 0.1 < 10
		{100, 0.9},   // ten samples beyond p90
		{199, 0.9},   // 199 x 0.05 < 10
		{200, 0.95},  // ten beyond p95
		{1000, 0.99}, // ten beyond p99
		{9999, 0.99},
		{10000, 0.999},
		{100000, 0.9999},
	}
	for _, tc := range tests {
		s := ramp(tc.n)
		v, q := tailPercentile(s)
		if q != tc.wantQ {
			t.Errorf("n=%d: quantile %v, want %v", tc.n, q, tc.wantQ)
		}
		if beyond := float64(tc.n) * (1 - q); q < 1 && beyond < 10-1e-9 {
			t.Errorf("n=%d: only %v samples beyond p%v", tc.n, beyond, q*100)
		}
		if want := percentile(s, math.Min(q, 1)); !near(v, want) {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
	}
	if v, q := tailPercentile(nil); !math.IsNaN(v) || q != 0 {
		t.Errorf("empty sample: got %v at %v", v, q)
	}
}

func TestCPUTimeDelta(t *testing.T) {
	before := cpuTime()
	x := 1.0
	for start := time.Now(); time.Since(start) < 30*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	delta := cpuTime() - before
	if delta < 10*time.Millisecond || delta > 2*time.Second {
		t.Errorf("30 ms of spinning cost %v of CPU (x=%v)", delta, x)
	}
	if got := tvDuration(syscall.Timeval{Sec: 2, Usec: 500000}); got != 2500*time.Millisecond {
		t.Errorf("tvDuration: got %v", got)
	}
}

func TestValidMetricName(t *testing.T) {
	good := []string{"setup_s", "e2e.delivery_p99_ms", "span.bdms.ingest.handler_self_p50_ms", "0a", "A-b_c.d"}
	bad := []string{"", "_leading", ".dot", "has space", "slash/name", "percent%", "ünicode",
		"x123456789012345678901234567890123456789012345678901234567890abcde"}
	for _, name := range good {
		if !validMetricName(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range bad {
		if validMetricName(name) {
			t.Errorf("%q accepted", name)
		}
	}
}

func TestHistogramP50(t *testing.T) {
	upper := []float64{0.001, 0.01, 0.1}
	tests := []struct {
		name  string
		cum   []uint64
		count uint64
		want  float64
	}{
		{"all in the first bucket", []uint64{10, 10, 10}, 10, 0.0005},
		{"median inside the second bucket", []uint64{2, 10, 10}, 10, 0.001 + 0.009*3/8},
		{"median beyond the last bound", []uint64{1, 2, 3}, 10, 0.1},
	}
	for _, tc := range tests {
		if got := histogramP50(upper, tc.cum, tc.count); !near(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := histogramP50(upper, []uint64{0, 0, 0}, 0); !math.IsNaN(got) {
		t.Errorf("empty histogram: got %v", got)
	}
}

// TestIQRShare pins the quartiles to Python's statistics.quantiles(n=4),
// which the benchmark's acceptance uses.
func TestIQRShare(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("ten values: got %v, want %v", got, want)
	}
	// quantiles([10, 20, 40], n=4) == [10, 20, 40]
	if got, want := iqrShare([]float64{20, 40, 10}), 30.0/20; !near(got, want) {
		t.Errorf("three values: got %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []spanRec{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps span 2
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 150}, // runs past its parent
	}
	// Children cover [10,60) and [90,100): 60 of the parent's 100.
	if got := coveredNS(spans, []int{1, 2, 3}, 0, 100); got != 60 {
		t.Errorf("covered %d, want 60", got)
	}
	if got := coveredNS(spans, nil, 0, 100); got != 0 {
		t.Errorf("no children: covered %d", got)
	}
}

// TestAnalyseLinksHandlersToCalls checks the post-hoc parent link between
// a client call and the handler spans it caused.
func TestAnalyseLinksHandlersToCalls(t *testing.T) {
	tr := newTracer(time.Now())
	call := tr.add(spanGetResults, "fs-1", 0, 0, 100)
	tr.add(spanResultsHandler, "fs-1", 0, 10, 30)
	tr.add(spanAckHandler, "fs-1", 0, 50, 70)
	tr.add(spanResultsHandler, "fs-2", 0, 10, 30) // other subscription: no parent
	stats, spans := tr.analyse()
	for _, s := range spans {
		switch {
		case s.Key == "fs-1" && s.Name != spanGetResults && s.Parent != call:
			t.Errorf("%s of fs-1 has parent %d, want %d", s.Name, s.Parent, call)
		case s.Key == "fs-2" && s.Parent != 0:
			t.Errorf("%s of fs-2 has parent %d, want none", s.Name, s.Parent)
		}
	}
	if got := stats[spanGetResults].selfP50; !near(got, 60e-6) {
		t.Errorf("call self time %v ms, want 60 ns", got)
	}
}
