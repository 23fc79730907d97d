package httpx

import (
	"bufio"
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
// metric cardinality stays bounded by the route table. The span name and
// the route's share of the HTTP metrics are taken here, once, not per
// request.
func (o *Observer) Wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	name := "http " + route
	metrics := o.HTTP.Route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		o.HTTP.Begin()
		defer o.HTTP.End()

		// Trace: continue the caller's trace when the header parses,
		// otherwise become the root. Either way this server handles the
		// request in a fresh child span, recorded (when a recorder is
		// configured) into the ring behind /v1/debug/traces.
		ctx := r.Context()
		if parent, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx = obs.ContextWithSpan(ctx, parent)
		}
		ctx, sp := o.Traces.Start(ctx, name)
		sp.SetAttr("method", r.Method)
		reqID := r.Header.Get(RequestIDHeader)
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		ctx = obs.ContextWithRequestID(ctx, reqID)
		w.Header().Set(RequestIDHeader, reqID)

		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r.WithContext(ctx))

		status := rec.status()
		sp.SetAttr("status", statusString(status))
		if status >= 500 {
			sp.SetError(fmt.Errorf("http %d", status))
		}
		sp.End()
		metrics.Observe(r.Method, status, time.Since(start))
		level := slog.LevelDebug
		if status >= 500 {
			level = slog.LevelError
		}
		o.Logger.LogAttrs(ctx, level, "http request",
			slog.String("route", route),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("duration", time.Since(start)),
		)
	}
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
