package httpx

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// RequestIDHeader carries the per-request ID; inbound values are honored
// (so a load balancer's IDs survive), otherwise the middleware mints one
// and always echoes it on the response.
const RequestIDHeader = "X-Request-Id"

// Observer bundles the per-server observability state the HTTP layer
// feeds: a metric registry (served at /metrics), per-route HTTP metrics, a
// structured logger and trace propagation. Create one per server process
// with NewObserver; NewServer constructors build a default when none is
// supplied, so /metrics works out of the box.
type Observer struct {
	// Service names the emitting process (badbroker, badcluster, badbcs).
	Service string
	// Logger receives access and error lines; it is trace-aware (lines
	// carry trace_id/span_id/request_id when the context has them).
	Logger *slog.Logger
	// Registry is the metric registry /metrics renders.
	Registry *obs.Registry
	// HTTP is the per-route instrumentation Wrap feeds.
	HTTP *obs.HTTPMetrics
	// Traces records server spans into the process-local ring served at
	// /v1/debug/traces. May be nil (propagation still works; nothing is
	// recorded).
	Traces *span.Recorder
}

// NewObserver builds an Observer with a fresh registry, HTTP metrics and
// the Go runtime collector. A nil logger discards logs (tests, embedders);
// pass obs.NewLogger(...) in binaries.
func NewObserver(service string, logger *slog.Logger) *Observer {
	if logger == nil {
		logger = obs.NopLogger()
	}
	reg := obs.NewRegistry()
	reg.MustRegister(obs.NewRuntimeCollector())
	traces := span.NewRecorder(service)
	reg.MustRegister(traces.Collector())
	return &Observer{
		Service:  service,
		Logger:   obs.WrapLogger(logger),
		Registry: reg,
		HTTP:     obs.NewHTTPMetrics(reg),
		Traces:   traces,
	}
}

// MetricsHandler serves the registry's Prometheus text exposition.
func (o *Observer) MetricsHandler() http.Handler { return o.Registry.Handler() }

// Wrap instruments one route: it joins (or starts) the request's trace from
// the traceparent header, injects a request ID, records per-route metrics
// and emits a structured access line. route should be the mux pattern, so
// metric cardinality stays bounded by the route table.
func (o *Observer) Wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	rt := o.Route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		o.HTTP.Begin()
		defer o.HTTP.End()
		ctx, sp := rt.Begin(r.Context(), r.Header.Get(obs.TraceparentHeader), r.Header.Get(RequestIDHeader), r.Method)
		w.Header().Set(RequestIDHeader, obs.RequestIDFromContext(ctx))
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r.WithContext(ctx))
		rt.End(ctx, sp, r.Method, r.URL.Path, rec.status(), rec.bytes, start)
	}
}

// Route is one route's instrumentation, its span name and metric series
// taken once. Wrap brackets each HTTP request with Begin and End; a server
// answering the route over another transport (a WebSocket frame) does too.
type Route struct {
	o       *Observer
	route   string
	name    string
	metrics *obs.RouteMetrics
}

// Route returns the instrumentation of the route with mux pattern route.
func (o *Observer) Route(route string) *Route {
	return &Route{o: o, route: route, name: "http " + route, metrics: o.HTTP.Route(route)}
}

// Begin opens one request's server span, a child of traceparent when it
// parses, else of ctx's span, else a new root. The returned context is
// the span, carrying the request ID: reqID or, when that is empty, the
// span's own ID, formatted only when something reads it.
func (rt *Route) Begin(ctx context.Context, traceparent, reqID, method string) (context.Context, *span.Span) {
	parent, ok := obs.ParseTraceparent(traceparent)
	if !ok {
		parent, _ = obs.SpanFromContext(ctx)
	}
	ctx, sp := rt.o.Traces.StartFrom(ctx, parent, rt.name)
	if sp == nil { // nothing records: a node alone carries the ID
		sc, _ := obs.SpanFromContext(ctx)
		return &obs.SpanNode{Context: ctx, SpanContext: sc, Server: true, RequestID: reqID}, nil
	}
	sp.Server, sp.RequestID = true, reqID
	sp.SetAttr("method", method)
	return ctx, sp
}

// End closes what Begin opened: the span's status, the route's series and
// the access line of a request answered status with n body bytes.
func (rt *Route) End(ctx context.Context, sp *span.Span, method, path string, status int, n int64, start time.Time) {
	sp.SetAttr("status", statusString(status))
	if status >= 500 {
		sp.SetError(fmt.Errorf("http %d", status))
	}
	sp.End()
	rt.metrics.Observe(method, status, time.Since(start))
	level := slog.LevelDebug
	if status >= 500 {
		level = slog.LevelError
	}
	rt.o.Logger.LogAttrs(ctx, level, "http request",
		slog.String("route", rt.route),
		slog.String("method", method),
		slog.String("path", path),
		slog.Int("status", status),
		slog.Int64("bytes", n),
		slog.Duration("duration", time.Since(start)),
	)
}

// statusStrings holds the decimal form of every status code a server can
// answer, so a span's status attribute costs no strconv allocation.
var statusStrings = func() (s [600]string) {
	for code := 100; code < len(s); code++ {
		s[code] = strconv.Itoa(code)
	}
	return s
}()

func statusString(code int) string {
	if code >= 100 && code < len(statusStrings) {
		return statusStrings[code]
	}
	return strconv.Itoa(code)
}

// statusRecorder captures the status code and body size while passing
// Hijack and Flush through, so WebSocket upgrades keep working under the
// middleware.
type statusRecorder struct {
	http.ResponseWriter
	code     int
	bytes    int64
	hijacked bool
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	n, err := s.ResponseWriter.Write(b)
	s.bytes += int64(n)
	return n, err
}

// Hijack forwards to the underlying writer (WebSocket upgrades).
func (s *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := s.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, http.ErrNotSupported
	}
	s.hijacked = true
	return hj.Hijack()
}

// Flush forwards to the underlying writer when it supports it.
func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status resolves the effective status code for metrics and logs.
func (s *statusRecorder) status() int {
	switch {
	case s.hijacked:
		return http.StatusSwitchingProtocols
	case s.code == 0:
		return http.StatusOK
	default:
		return s.code
	}
}
