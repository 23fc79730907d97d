// Package obs is the observability layer shared by the broker, the data
// cluster and the BCS: a dependency-free Prometheus-text-format metric
// registry (counters, gauges, histograms, summaries and pull-style
// collectors), W3C-traceparent-compatible trace propagation through
// context.Context, slog helpers that stamp trace and request IDs onto log
// lines, and an opt-in debug mux with pprof.
//
// The paper's evaluation (Figures 3-5, 7) is all per-broker cache
// accounting; the counters it is kept in are this package's Counter, so the
// same words feed a figure and a continuously scrapable /metrics surface:
// hit ratio, eviction pressure and fetch volume can be watched evolving on
// a live deployment instead of only as a one-shot /v1/stats snapshot.
//
// This is the module's one measurement kit and the bottom of its import
// graph: Counter for every float count, Gauge, and Histogram for every
// latency a long-lived server observes (constant memory). It imports no
// other package of the module — whoever owns state exports it by
// implementing Collector beside that state (metrics.CacheStats,
// core.Manager, bdms.NotifierStats, …). Exact-sample quantiles, which grow
// with the run, are internal/metrics' Sampler and belong to runs that end.
//
// Everything here is stdlib-only; the module has zero dependencies and this
// package must keep it that way.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the exposition type of a metric family.
type MetricType string

// The exposition types this package emits.
const (
	CounterType   MetricType = "counter"
	GaugeType     MetricType = "gauge"
	HistogramType MetricType = "histogram"
	SummaryType   MetricType = "summary"
)

// Label is one name="value" pair on a metric point.
type Label struct {
	Name  string
	Value string
}

// HistogramSnapshot is a histogram's state at one scrape.
type HistogramSnapshot struct {
	// UpperBounds are the bucket upper bounds, ascending, excluding +Inf.
	UpperBounds []float64
	// CumCounts[i] counts observations <= UpperBounds[i] (cumulative, as
	// the text format requires).
	CumCounts []uint64
	// Count is the total number of observations (the +Inf bucket).
	Count uint64
	// Sum is the sum of all observed values.
	Sum float64
}

// SummarySnapshot is a quantile summary's state at one scrape.
type SummarySnapshot struct {
	// Quantiles maps q in (0,1) to its value, emitted sorted by q.
	Quantiles map[float64]float64
	Count     uint64
	Sum       float64
}

// Point is one sample row of a family: a scalar for counters/gauges, or a
// histogram/summary snapshot.
type Point struct {
	Labels  []Label
	Value   float64
	Hist    *HistogramSnapshot
	Summary *SummarySnapshot
}

// Family is one named metric with help, type and its points.
type Family struct {
	Name   string
	Help   string
	Type   MetricType
	Points []Point
}

// Collector is the pull-style source of metric families; Collect is called
// at scrape time, so collectors can read live state (the cache manager's
// totals, runtime memstats) without maintaining push-side bookkeeping.
type Collector interface {
	Collect(emit func(Family))
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(emit func(Family))

// Collect implements Collector.
func (f CollectorFunc) Collect(emit func(Family)) { f(emit) }

// Registry gathers collectors and renders them in Prometheus text format.
// The zero value is not ready; use NewRegistry.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
	names      map[string]MetricType // instrument names already registered
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]MetricType)}
}

// MustRegister adds collectors; it panics when an instrument collector
// re-uses an already registered name with a different type (a programmer
// error that would corrupt the exposition).
func (r *Registry) MustRegister(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		if n, ok := c.(interface {
			metricName() string
			metricType() MetricType
		}); ok {
			name, typ := n.metricName(), n.metricType()
			if prev, dup := r.names[name]; dup && prev != typ {
				panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, prev, typ))
			}
			r.names[name] = typ
		}
		r.collectors = append(r.collectors, c)
	}
}

// Gather collects every family, merges same-named families (points append;
// the first collector's help/type win) and returns them sorted by name with
// deterministically ordered points.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	byName := make(map[string]*Family)
	var order []string
	for _, c := range collectors {
		c.Collect(func(f Family) {
			if existing, ok := byName[f.Name]; ok {
				existing.Points = append(existing.Points, f.Points...)
				return
			}
			cp := f
			byName[f.Name] = &cp
			order = append(order, f.Name)
		})
	}
	sort.Strings(order)
	out := make([]Family, 0, len(order))
	for _, name := range order {
		f := byName[name]
		sort.SliceStable(f.Points, func(i, j int) bool {
			return labelSignature(f.Points[i].Labels) < labelSignature(f.Points[j].Labels)
		})
		out = append(out, *f)
	}
	return out
}

// labelSignature renders labels for deterministic point ordering.
func labelSignature(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

// validName reports whether s is a legal metric or label name
// ([a-zA-Z_:][a-zA-Z0-9_:]* — label names may not contain ':' but none of
// ours do, so one check serves both).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func mustValidNames(metric string, labels []string) {
	if !validName(metric) {
		panic(fmt.Sprintf("obs: invalid metric name %q", metric))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, metric))
		}
	}
}

// ---- scalar instruments ----------------------------------------------------

// Counter is a lock-free monotone float64 counter (IEEE-754 bits in an
// atomic word, CAS-updated, so Add takes no mutex: the cache manager bumps
// its counters on every GET, outside its own lock). It is the one float
// counter of the module — the paper's byte and object accounting, the
// cluster's, the WAL's and the labelled counter vectors all use it. The
// zero value is ready.
type Counter struct {
	bits    atomic.Uint64 // math.Float64bits of the running total
	dropped atomic.Int64
}

// Add increases the counter by v. Negative and NaN deltas are rejected so
// the series stays monotone, but not silently: each rejection is tallied
// and visible through Dropped, so a byte-accounting bug that produces
// negative deltas cannot hide.
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		c.dropped.Add(1)
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Dropped returns how many Add calls were rejected for carrying a negative
// or NaN delta. A non-zero value indicates an accounting bug upstream.
func (c *Counter) Dropped() int64 { return c.dropped.Load() }

// Gauge is a lock-free float64 gauge. The zero value is ready.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default histogram bucket upper bounds (seconds),
// matching the conventional Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram accumulates observations into cumulative buckets: constant
// memory however long the process lives, which is why servers use it where
// finite runs keep exact samples. The zero value is a histogram over
// DefBuckets; NewHistogram selects other bounds.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // per-bucket (non-cumulative), len == len(bounds)
	count  uint64
	sum    float64
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (nil selects DefBuckets). A trailing +Inf bound is implicit.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// initLocked gives the zero value its DefBuckets; the caller holds h.mu.
func (h *Histogram) initLocked() {
	if h.counts == nil {
		h.bounds, h.counts = DefBuckets, make([]uint64, len(DefBuckets))
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.initLocked()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.counts) {
		h.counts[i]++
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Snapshot returns the cumulative-bucket view the text format needs.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.initLocked()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return &HistogramSnapshot{
		UpperBounds: h.bounds,
		CumCounts:   cum,
		Count:       h.count,
		Sum:         h.sum,
	}
}

// ---- named vectors (instruments that are collectors) -----------------------

// vec is the shared child table of the labelled instrument vectors.
type vec[T any] struct {
	name   string
	help   string
	labels []string

	mu       sync.Mutex
	children map[string]*child[T]
	order    []string
	make     func() *T
}

type child[T any] struct {
	labelValues []string
	inst        *T
}

func newVec[T any](name, help string, labels []string, mk func() *T) *vec[T] {
	mustValidNames(name, labels)
	return &vec[T]{
		name: name, help: help, labels: labels,
		children: make(map[string]*child[T]),
		make:     mk,
	}
}

func (v *vec[T]) with(labelValues ...string) *T {
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d",
			v.name, len(v.labels), len(labelValues)))
	}
	// The key is built on the stack and looked up without conversion; it
	// becomes a string only for a child seen the first time.
	var buf [128]byte
	key := buf[:0]
	for i, lv := range labelValues {
		if i > 0 {
			key = append(key, '\xff')
		}
		key = append(key, lv...)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[string(key)]
	if !ok {
		k := string(key)
		c = &child[T]{labelValues: append([]string(nil), labelValues...), inst: v.make()}
		v.children[k] = c
		v.order = append(v.order, k)
	}
	return c.inst
}

func (v *vec[T]) points(point func(c *child[T]) Point) []Point {
	v.mu.Lock()
	defer v.mu.Unlock()
	pts := make([]Point, 0, len(v.order))
	for _, key := range v.order {
		c := v.children[key]
		p := point(c)
		p.Labels = makeLabels(v.labels, c.labelValues)
		pts = append(pts, p)
	}
	return pts
}

func makeLabels(names, values []string) []Label {
	ls := make([]Label, len(names))
	for i := range names {
		ls[i] = Label{Name: names[i], Value: values[i]}
	}
	return ls
}

// CounterVec is a labelled counter family. With zero label names it acts as
// a single named counter via With().
type CounterVec struct{ v *vec[Counter] }

// NewCounterVec returns a counter family; register it on a Registry.
func NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{newVec(name, help, labelNames, func() *Counter { return new(Counter) })}
}

// With returns (creating on first use) the child for the label values.
func (cv *CounterVec) With(labelValues ...string) *Counter { return cv.v.with(labelValues...) }

// Collect implements Collector.
func (cv *CounterVec) Collect(emit func(Family)) {
	emit(Family{
		Name: cv.v.name, Help: cv.v.help, Type: CounterType,
		Points: cv.v.points(func(c *child[Counter]) Point { return Point{Value: c.inst.Value()} }),
	})
}

func (cv *CounterVec) metricName() string     { return cv.v.name }
func (cv *CounterVec) metricType() MetricType { return CounterType }

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ v *vec[Histogram] }

// NewHistogramVec returns a histogram family over the given bounds (nil
// selects DefBuckets); register it on a Registry.
func NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	return &HistogramVec{newVec(name, help, labelNames, func() *Histogram { return NewHistogram(b) })}
}

// With returns (creating on first use) the child for the label values.
func (hv *HistogramVec) With(labelValues ...string) *Histogram { return hv.v.with(labelValues...) }

// Collect implements Collector.
func (hv *HistogramVec) Collect(emit func(Family)) {
	emit(Family{
		Name: hv.v.name, Help: hv.v.help, Type: HistogramType,
		Points: hv.v.points(func(c *child[Histogram]) Point { return Point{Hist: c.inst.Snapshot()} }),
	})
}

func (hv *HistogramVec) metricName() string     { return hv.v.name }
func (hv *HistogramVec) metricType() MetricType { return HistogramType }

// ---- func collectors -------------------------------------------------------

// GaugeFunc exposes fn's value as an unlabelled gauge read at scrape time.
func GaugeFunc(name, help string, fn func() float64) Collector {
	mustValidNames(name, nil)
	return CollectorFunc(func(emit func(Family)) {
		emit(Family{Name: name, Help: help, Type: GaugeType, Points: []Point{{Value: fn()}}})
	})
}

// CounterFunc exposes fn's value as an unlabelled counter read at scrape
// time; fn must be monotone.
func CounterFunc(name, help string, fn func() float64) Collector {
	mustValidNames(name, nil)
	return CollectorFunc(func(emit func(Family)) {
		emit(Family{Name: name, Help: help, Type: CounterType, Points: []Point{{Value: fn()}}})
	})
}
