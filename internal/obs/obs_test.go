package obs

import (
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // negative adds are dropped and tallied: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Errorf("Counter.Value = %v, want 3.5", got)
	}
	if got := c.Dropped(); got != 1 {
		t.Errorf("Counter.Dropped = %v, want 1", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-4)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Errorf("Gauge.Value = %v, want 6", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 106 {
		t.Errorf("Sum = %v, want 106", s.Sum)
	}
	wantCum := []uint64{2, 3, 4} // <=1: {0.5, 1}; <=2: +1.5; <=5: +3
	for i, want := range wantCum {
		if s.CumCounts[i] != want {
			t.Errorf("CumCounts[%d] = %d, want %d", i, s.CumCounts[i], want)
		}
	}
}

func TestHistogramZeroValueUsesDefBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0.02) // falls in DefBuckets' third bucket, le=0.025
	s := h.Snapshot()
	if len(s.UpperBounds) != len(DefBuckets) || s.CumCounts[1] != 0 || s.CumCounts[2] != 1 || s.Count != 1 {
		t.Errorf("zero-value histogram: bounds %v, cumulative %v, count %d", s.UpperBounds, s.CumCounts, s.Count)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram with unsorted bounds should panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

func TestRegistryRejectsTypeClash(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(NewCounterVec("clash_total", "a counter", "l"))
	defer func() {
		if recover() == nil {
			t.Error("re-registering a name with a different type should panic")
		}
	}()
	reg.MustRegister(NewHistogramVec("clash_total", "now a histogram", nil, "l"))
}

func TestVecChildrenAreStable(t *testing.T) {
	cv := NewCounterVec("stable_total", "h", "k")
	cv.With("a").Add(1)
	cv.With("a").Add(1)
	cv.With("b").Inc()
	if got := cv.With("a").Value(); got != 2 {
		t.Errorf("With(a) = %v, want 2 (children must be shared, not re-created)", got)
	}
	if got := cv.With("b").Value(); got != 1 {
		t.Errorf("With(b) = %v, want 1", got)
	}
}

// gatherText renders the registry and parses it back.
func gatherText(t *testing.T, reg *Registry) (string, *TextMetrics) {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	return sb.String(), parsed
}

func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	cv := NewCounterVec("test_requests_total", "Requests served.", "route", "code")
	cv.With("/v1/stats", "200").Add(3)
	cv.With("/v1/stats", "404").Add(1)
	hv := NewHistogramVec("test_latency_seconds", "Latency.", []float64{0.1, 1}, "route")
	hv.With("/v1/stats").Observe(0.05)
	hv.With("/v1/stats").Observe(0.5)
	hv.With("/v1/stats").Observe(5)
	reg.MustRegister(cv, hv, GaugeFunc("test_up", "Liveness.", func() float64 { return 1 }))

	text, parsed := gatherText(t, reg)

	// HELP and TYPE lines present, TYPE correct.
	for name, typ := range map[string]MetricType{
		"test_requests_total":  CounterType,
		"test_latency_seconds": HistogramType,
		"test_up":              GaugeType,
	} {
		if parsed.Types[name] != typ {
			t.Errorf("TYPE %s = %q, want %q", name, parsed.Types[name], typ)
		}
		if parsed.Help[name] == "" {
			t.Errorf("missing HELP for %s", name)
		}
	}
	// TYPE precedes samples.
	if strings.Index(text, "# TYPE test_requests_total") > strings.Index(text, `test_requests_total{`) {
		t.Error("TYPE line must precede its samples")
	}

	if v, _ := parsed.Value(`test_requests_total{route="/v1/stats",code="200"}`); v != 3 {
		t.Errorf("counter sample = %v, want 3\n%s", v, text)
	}

	// Histogram: buckets cumulative and monotone, +Inf equals _count.
	var (
		cum []float64
	)
	for _, key := range []string{
		`test_latency_seconds_bucket{route="/v1/stats",le="0.1"}`,
		`test_latency_seconds_bucket{route="/v1/stats",le="1"}`,
		`test_latency_seconds_bucket{route="/v1/stats",le="+Inf"}`,
	} {
		v, ok := parsed.Value(key)
		if !ok {
			t.Fatalf("missing bucket %s\n%s", key, text)
		}
		cum = append(cum, v)
	}
	if !sort.Float64sAreSorted(cum) {
		t.Errorf("buckets not monotone: %v", cum)
	}
	if want := []float64{1, 2, 3}; cum[0] != want[0] || cum[1] != want[1] || cum[2] != want[2] {
		t.Errorf("buckets = %v, want %v", cum, want)
	}
	if cnt, _ := parsed.Value(`test_latency_seconds_count{route="/v1/stats"}`); cnt != 3 {
		t.Errorf("_count = %v, want 3", cnt)
	}
	if sum, _ := parsed.Value(`test_latency_seconds_sum{route="/v1/stats"}`); math.Abs(sum-5.55) > 1e-12 {
		t.Errorf("_sum = %v, want 5.55", sum)
	}
}

func TestExpositionLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	cv := NewCounterVec("test_weird_total", "Label escaping.", "v")
	cv.With("a\\b\"c\nd").Inc()
	reg.MustRegister(cv)
	text, _ := gatherText(t, reg) // gatherText fails the test if it cannot parse
	want := `test_weird_total{v="a\\b\"c\nd"} 1`
	if !strings.Contains(text, want) {
		t.Errorf("escaped sample %q not found in:\n%s", want, text)
	}
}

func TestExpositionMergesSameFamily(t *testing.T) {
	// Two collectors emitting the same family name must merge under one
	// TYPE header instead of repeating it.
	reg := NewRegistry()
	emit1 := CollectorFunc(func(emit func(Family)) {
		emit(Family{Name: "merged_total", Type: CounterType, Points: []Point{{Labels: []Label{{"which", "a"}}, Value: 1}}})
	})
	emit2 := CollectorFunc(func(emit func(Family)) {
		emit(Family{Name: "merged_total", Type: CounterType, Points: []Point{{Labels: []Label{{"which", "b"}}, Value: 2}}})
	})
	reg.MustRegister(emit1, emit2)
	text, parsed := gatherText(t, reg)
	if n := strings.Count(text, "# TYPE merged_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1:\n%s", n, text)
	}
	if v, _ := parsed.Value(`merged_total{which="b"}`); v != 2 {
		t.Errorf("merged point = %v, want 2", v)
	}
}

func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(GaugeFunc("test_up", "Liveness.", func() float64 { return 1 }))
	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, TextContentType)
	}
	if !strings.Contains(rr.Body.String(), "test_up 1") {
		t.Errorf("body missing sample:\n%s", rr.Body.String())
	}
}

func TestFormatFloatRoundTrips(t *testing.T) {
	for _, v := range []float64{0, 1, 0.1, 1e308, 123456789.123456789, math.Inf(1)} {
		s := formatFloat(v)
		if math.IsInf(v, 1) {
			if s != "+Inf" {
				t.Errorf("formatFloat(+Inf) = %q", s)
			}
			continue
		}
		back, err := strconv.ParseFloat(s, 64)
		if err != nil || back != v {
			t.Errorf("formatFloat(%v) = %q does not round-trip (%v, %v)", v, s, back, err)
		}
	}
}
