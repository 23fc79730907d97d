package main

import (
	"math"
	"regexp"
	"sort"
	"syscall"
	"time"
)

// Metric is one printed measurement. The name is final once it appears in
// BENCHMARK.json; the unit travels with it into the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the benchmark contract: it
// starts with a letter or digit and holds at most 64 of [A-Za-z0-9_.-].
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median sorts a copy of xs and returns its middle; NaN when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9}

// tailPercentile returns the highest percentile of sorted that still has
// at least ten samples beyond it, with the quantile chosen. Fewer than
// ~100 samples support no tail: it then falls back to the maximum and
// reports q = 1.
func tailPercentile(sorted []float64) (value, q float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	for _, c := range tailPercentiles {
		if float64(n)*(1-c) >= 10-1e-9 { // 100*(1-0.9) is a hair under 10 in floating point
			return percentile(sorted, c), c
		}
	}
	return sorted[n-1], 1
}

// medianOfSlices is how every timing and per-delivery cost of a run is
// reported: one value per slice of the window, then the middle slice, so
// that a burst from a noisy neighbour moves one slice and not the run.
// Slices without a value (NaN) are left out.
func medianOfSlices(perSlice []float64) float64 {
	kept := make([]float64, 0, len(perSlice))
	for _, v := range perSlice {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			kept = append(kept, v)
		}
	}
	return median(kept)
}

// quantilePerSlice buckets (at, value) samples by the slice their at falls
// into and returns each slice's q-quantile (NaN for an empty slice).
// Samples outside [0, slices*sliceLen) are ignored.
func quantilePerSlice(at []time.Duration, value []float64, q float64, sliceLen time.Duration, slices int) []float64 {
	buckets := make([][]float64, slices)
	for i, t := range at {
		if t < 0 {
			continue
		}
		s := int(t / sliceLen)
		if s >= slices {
			continue
		}
		buckets[s] = append(buckets[s], value[i])
	}
	per := make([]float64, slices)
	for s, b := range buckets {
		sort.Float64s(b)
		per[s] = percentile(b, q)
	}
	return per
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvDuration(ru.Utime) + tvDuration(ru.Stime)
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// ratio is a/b, NaN when b is 0: a per-delivery cost of a slice without
// deliveries has no value, and medianOfSlices leaves it out.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histogramP50 estimates the median of a cumulative-bucket histogram by
// linear interpolation inside the bucket that holds it; it is how the
// production bad_delivery_latency_seconds{stage} series is read.
func histogramP50(upper []float64, cum []uint64, count uint64) float64 {
	if count == 0 {
		return math.NaN()
	}
	target := float64(count) / 2
	prevBound, prevCum := 0.0, 0.0
	for i, b := range upper {
		c := float64(cum[i])
		if c >= target {
			if c == prevCum {
				return b
			}
			return prevBound + (b-prevBound)*(target-prevCum)/(c-prevCum)
		}
		prevBound, prevCum = b, c
	}
	return upper[len(upper)-1] // median sits in the +Inf bucket
}
