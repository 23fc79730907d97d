package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"gobad/internal/obs"
)

func TestWrapInjectsTraceAndRequestID(t *testing.T) {
	o := NewObserver("test", nil)
	var gotSpan obs.SpanContext
	var gotReqID string
	h := o.Wrap("/v1/things/{id}", func(w http.ResponseWriter, r *http.Request) {
		gotSpan, _ = obs.SpanFromContext(r.Context())
		gotReqID = obs.RequestIDFromContext(r.Context())
		WriteJSON(w, http.StatusOK, nil)
	})

	parent := obs.NewSpan()
	req := httptest.NewRequest("GET", "/v1/things/42", nil)
	req.Header.Set(obs.TraceparentHeader, parent.Traceparent())
	req.Header.Set(RequestIDHeader, "upstream-id")
	rr := httptest.NewRecorder()
	h(rr, req)

	if gotSpan.TraceID != parent.TraceID {
		t.Error("handler context must continue the inbound trace")
	}
	if gotSpan.SpanID == parent.SpanID {
		t.Error("handler must run in a child span, not the caller's")
	}
	if gotReqID != "upstream-id" {
		t.Errorf("request id = %q, want inbound value honored", gotReqID)
	}
	if rr.Header().Get(RequestIDHeader) != "upstream-id" {
		t.Error("request id must be echoed on the response")
	}
}

func TestWrapMintsIDsWithoutHeaders(t *testing.T) {
	o := NewObserver("test", nil)
	h := o.Wrap("/x", func(w http.ResponseWriter, r *http.Request) {
		sc, ok := obs.SpanFromContext(r.Context())
		if !ok || !sc.Valid() {
			t.Error("a root span must be started when no traceparent arrives")
		}
		w.WriteHeader(http.StatusNoContent)
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/x", nil))
	if rr.Header().Get(RequestIDHeader) == "" {
		t.Error("a request id must be minted and echoed")
	}
}

func TestWrapRecordsMetrics(t *testing.T) {
	o := NewObserver("test", nil)
	h := o.Wrap("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, "nope")
	})
	for i := 0; i < 3; i++ {
		rr := httptest.NewRecorder()
		h(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	}
	var sb strings.Builder
	if err := o.Registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if v, _ := parsed.Value(`http_requests_total{route="/v1/stats",method="GET",code="404"}`); v != 3 {
		t.Errorf("requests counter = %v, want 3\n%s", v, sb.String())
	}
	if v, _ := parsed.Value(`http_request_duration_seconds_count{route="/v1/stats"}`); v != 3 {
		t.Errorf("latency count = %v, want 3", v)
	}
	if v, ok := parsed.Value("http_requests_in_flight"); !ok || v != 0 {
		t.Errorf("in-flight = %v (%v), want 0 after requests drain", v, ok)
	}
}

func TestWrapAccessLogCarriesTrace(t *testing.T) {
	var buf bytes.Buffer
	o := NewObserver("test", obs.NewLogger(&buf, slog.LevelDebug, "test"))
	h := o.Wrap("/x", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, nil)
	})
	parent := obs.NewSpan()
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(obs.TraceparentHeader, parent.Traceparent())
	h(httptest.NewRecorder(), req)

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access line is not JSON: %v\n%s", err, buf.String())
	}
	if line["msg"] != "http request" || line["trace_id"] != parent.TraceIDString() {
		t.Errorf("access line = %v", line)
	}
	if line["status"] != float64(http.StatusOK) {
		t.Errorf("status = %v", line["status"])
	}
}

// TestWrapAllocs bounds what instrumenting a route costs a request that
// arrives with a traceparent, around a handler that does nothing.
func TestWrapAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own")
	}
	o := NewObserver("badbroker", nil)
	h := o.Wrap("/v1/subscriptions/{fs}/results", func(http.ResponseWriter, *http.Request) {})
	r := httptest.NewRequest(http.MethodGet, "/v1/subscriptions/fs-1/results", nil)
	r.Header.Set(obs.TraceparentHeader, obs.NewSpan().Traceparent())
	w := httptest.NewRecorder()
	h(w, r) // the route's series exist from here on
	allocs := testing.AllocsPerRun(200, func() { h(w, r) })
	// Seven: the remote parent's and the server span's context nodes, the
	// span, the request ID, its context node and its response header
	// value, and the request copy WithContext makes. The parent spent 20:
	// a closure for the in-flight gauge, two context.WithValue pairs, the
	// span name, the span with its trace buffer, slot and attribute map,
	// the request ID's hex, the status code's string twice and the label
	// key of a series lookup.
	if allocs > 8 {
		t.Errorf("Wrap around a no-op handler = %v allocs, want at most 8", allocs)
	}
}

// raceBuild reports a -race test binary, whose instrumentation allocates
// on its own.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestDoJSONContextForwardsTrace(t *testing.T) {
	var gotTraceparent, gotReqID string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTraceparent = r.Header.Get(obs.TraceparentHeader)
		gotReqID = r.Header.Get(RequestIDHeader)
		WriteJSON(w, http.StatusOK, map[string]string{})
	}))
	defer srv.Close()

	parent := obs.NewSpan()
	ctx := obs.ContextWithSpan(context.Background(), parent)
	ctx = obs.ContextWithRequestID(ctx, "req-7")
	if err := DoJSONContext(ctx, srv.Client(), http.MethodGet, srv.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	sc, ok := obs.ParseTraceparent(gotTraceparent)
	if !ok {
		t.Fatalf("outbound traceparent %q does not parse", gotTraceparent)
	}
	if sc.TraceID != parent.TraceID {
		t.Error("outbound call must stay in the caller's trace")
	}
	if sc.SpanID == parent.SpanID {
		t.Error("outbound call must be a child span")
	}
	if gotReqID != "req-7" {
		t.Errorf("outbound request id = %q", gotReqID)
	}
}
