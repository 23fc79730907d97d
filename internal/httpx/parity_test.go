package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"

	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// parityOutputs drives a fixed request sequence through three instrumented
// routes — answering 200, 404 and 502, with and without an inbound
// traceparent and request ID — and returns the /metrics exposition and the
// /v1/debug/traces export it leaves, normalized: IDs become ordinals in
// order of first appearance, start times, durations and latency sums and
// buckets become placeholders. What is left is every series, label,
// count, span, name, link, attribute, error and reason the sequence
// produced.
func parityOutputs(t *testing.T) (metrics, traces []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	rec := span.NewRecorder("badbroker")
	reg.MustRegister(rec.Collector())
	o := &Observer{Service: "badbroker", Logger: obs.NopLogger(), Registry: reg,
		HTTP: obs.NewHTTPMetrics(reg), Traces: rec}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/things/{id}", o.Wrap("/v1/things/{id}", func(w http.ResponseWriter, r *http.Request) {
		_, a := o.Traces.Start(r.Context(), "child.first")
		a.SetAttr("zeta", "1")
		a.SetAttr("alpha", "2")
		a.SetAttr("zeta", "3")
		a.End()
		_, b := o.Traces.Start(r.Context(), "child.second")
		b.SetName("child.renamed")
		b.End()
		WriteJSON(w, http.StatusOK, map[string]string{"id": r.PathValue("id")})
	}))
	mux.HandleFunc("GET /v1/missing", o.Wrap("/v1/missing", func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusNotFound, "no such thing")
	}))
	mux.HandleFunc("POST /v1/upstream", o.Wrap("/v1/upstream", func(w http.ResponseWriter, r *http.Request) {
		_, sp := o.Traces.Start(r.Context(), "upstream.fetch")
		sp.SetAttr("ranges", "2")
		sp.SetError(errors.New("cluster unreachable"))
		sp.End()
		WriteError(w, http.StatusBadGateway, "upstream down")
	}))
	mux.Handle("GET /metrics", o.MetricsHandler())
	mux.Handle("GET /v1/debug/traces", o.Traces.Handler())

	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, req := range []struct{ method, path, traceparent, requestID string }{
		{http.MethodGet, "/v1/things/1", tp, "req-1"},
		{http.MethodGet, "/v1/missing", "", ""},
		{http.MethodPost, "/v1/upstream", tp, "req-3"},
		{http.MethodGet, "/v1/things/2", "", "req-4"},
		{http.MethodGet, "/v1/missing", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", ""},
		{http.MethodPost, "/v1/upstream", "", ""},
	} {
		r := httptest.NewRequest(req.method, req.path, nil)
		if req.traceparent != "" {
			r.Header.Set(obs.TraceparentHeader, req.traceparent)
		}
		if req.requestID != "" {
			r.Header.Set(RequestIDHeader, req.requestID)
		}
		mux.ServeHTTP(httptest.NewRecorder(), r)
	}
	get := func(path string) []byte {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.Body.Bytes()
	}
	return normalizeMetrics(get("/metrics")), normalizeTraces(get("/v1/debug/traces"))
}

var (
	latencyTiming = regexp.MustCompile(`(?m)^(http_request_duration_seconds_(?:sum\{.*\}|bucket\{.*le="[0-9.e+-]+"\})) \S+$`)
	hexID         = regexp.MustCompile(`"(trace_id|span_id|parent_id)": "([0-9a-f]+)"`)
	spanTiming    = regexp.MustCompile(`"(start_unix_nano|duration_ns)": [0-9]+`)
)

func normalizeMetrics(b []byte) []byte {
	return latencyTiming.ReplaceAll(b, []byte("$1 <timing>"))
}

func normalizeTraces(b []byte) []byte {
	ids := map[string]int{}
	b = hexID.ReplaceAllFunc(b, func(m []byte) []byte {
		sub := hexID.FindSubmatch(m)
		n, ok := ids[string(sub[2])]
		if !ok {
			n = len(ids) + 1
			ids[string(sub[2])] = n
		}
		return []byte(fmt.Sprintf(`"%s": "id-%d"`, sub[1], n))
	})
	return spanTiming.ReplaceAll(b, []byte(`"$1": 0`))
}

// TestObservabilityParity: the fixed sequence leaves the exposition and the
// trace export it left before spans kept their attributes inline and Wrap
// resolved its series at registration — byte for byte, up to the
// normalization above. The goldens were recorded at the parent of that
// change.
func TestObservabilityParity(t *testing.T) {
	metrics, traces := parityOutputs(t)
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"testdata/parity_metrics.golden", metrics},
		{"testdata/parity_traces.golden", traces},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", g.file, g.got, want)
		}
	}
}
