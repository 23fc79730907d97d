package obs

import (
	"strconv"
	"sync"
	"time"
)

// HTTPMetrics is the per-route server-side HTTP instrumentation every
// gobad server exposes: request counts by route/method/status, a latency
// histogram per route and an in-flight gauge. Construct with
// NewHTTPMetrics, which registers the families on the given registry.
type HTTPMetrics struct {
	requests *CounterVec
	latency  *HistogramVec
	inflight *Gauge
}

// NewHTTPMetrics creates and registers the HTTP metric families.
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	m := &HTTPMetrics{
		requests: NewCounterVec("http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "code"),
		latency: NewHistogramVec("http_request_duration_seconds",
			"HTTP request latency by route pattern.", DefBuckets, "route"),
	}
	m.inflight = &Gauge{}
	reg.MustRegister(m.requests, m.latency,
		GaugeFunc("http_requests_in_flight", "Requests currently being served.", m.inflight.Value))
	return m
}

// Begin marks a request in flight; End marks it done.
func (m *HTTPMetrics) Begin() { m.inflight.Inc() }

// End ends what Begin started.
func (m *HTTPMetrics) End() { m.inflight.Dec() }

// Route returns one route pattern's share of the families; a server takes
// it once, when it registers the route.
func (m *HTTPMetrics) Route(route string) *RouteMetrics {
	return &RouteMetrics{m: m, route: route, requests: make(map[methodCode]*Counter)}
}

// RouteMetrics records the requests one route serves. Each series is
// resolved from its family the first time the route observes it and kept,
// so a request builds no label key; a series still appears on /metrics
// only once it has been observed, as it did when every request looked its
// series up.
type RouteMetrics struct {
	m     *HTTPMetrics
	route string

	mu       sync.Mutex
	latency  *Histogram
	requests map[methodCode]*Counter
}

type methodCode struct {
	method string
	code   int
}

// Observe records one served request.
func (r *RouteMetrics) Observe(method string, code int, d time.Duration) {
	r.mu.Lock()
	c := r.requests[methodCode{method, code}]
	if c == nil {
		c = r.m.requests.With(r.route, method, strconv.Itoa(code))
		r.requests[methodCode{method, code}] = c
	}
	if r.latency == nil {
		r.latency = r.m.latency.With(r.route)
	}
	h := r.latency
	r.mu.Unlock()
	c.Inc()
	h.Observe(d.Seconds())
}
