package broker

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/httpx"
	"gobad/internal/obs"
)

// tracedPair stands up a data cluster and a broker over real HTTP, each
// with a debug-level JSON logger capturing into a buffer, so tests can
// follow one trace across both processes.
func tracedPair(t *testing.T, policy core.Policy, budget int64) (brokerSrv *httptest.Server, brokerLog, clusterLog *bytes.Buffer, b *Broker) {
	t.Helper()
	var brokerRef *Broker
	cluster := bdms.NewCluster(bdms.WithNotifier(bdms.NotifierFunc(func(ctx context.Context, subID, _ string, latest time.Duration) {
		if brokerRef != nil {
			_ = brokerRef.HandleNotificationContext(ctx, subID, latest, nil)
		}
	})))
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.DefineChannel(bdms.ChannelDef{
		Name:   "Alerts",
		Params: []string{"etype"},
		Body:   "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}

	clusterLog = &bytes.Buffer{}
	clusterObs := httpx.NewObserver("badcluster", obs.NewLogger(clusterLog, slog.LevelDebug, "badcluster"))
	clusterSrv := httptest.NewServer(bdms.NewServer(cluster, bdms.WithObserver(clusterObs)).Handler())
	t.Cleanup(clusterSrv.Close)

	brokerLog = &bytes.Buffer{}
	brokerObs := httpx.NewObserver("badbroker", obs.NewLogger(brokerLog, slog.LevelDebug, "badbroker"))
	b, err := New(Config{
		ID:          "broker-1",
		Backend:     bdms.NewClient(clusterSrv.URL, nil),
		Policy:      policy,
		CacheBudget: budget,
		Logger:      brokerObs.Logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	brokerRef = b
	brokerSrv = httptest.NewServer(NewServer(b, WithObserver(brokerObs)).Handler())
	t.Cleanup(brokerSrv.Close)
	return brokerSrv, brokerLog, clusterLog, b
}

// awaitNotified waits until the broker has taken the cluster's
// notification of a result for fs: the cluster answers an ingest over HTTP
// before it notifies.
func awaitNotified(t *testing.T, b *Broker, fs string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		bts := b.frontend[fs].bs.bts
		b.mu.Unlock()
		if bts > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the broker never took the cluster's notification")
		}
	}
}

// logLinesWithTrace scans JSON log lines and returns those carrying the
// given trace id.
func logLinesWithTrace(t *testing.T, buf *bytes.Buffer, traceID string) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("non-JSON log line: %v: %s", err, sc.Text())
		}
		if line["trace_id"] == traceID {
			out = append(out, line)
		}
	}
	return out
}

// TestTracePropagatesBrokerToCluster is the end-to-end trace check: one
// client request with a traceparent header produces access-log lines on
// BOTH the broker and the data cluster sharing the client's trace ID.
func TestTracePropagatesBrokerToCluster(t *testing.T) {
	// NC caches nothing, so the retrieval below must fetch from the
	// cluster, carrying the trace across the wire.
	brokerSrv, brokerLog, clusterLog, b := tracedPair(t, core.NC{}, 0)

	fs, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	// Produce one result.
	cluster := b.backend.(*bdms.Client)
	if _, err := cluster.Ingest("EmergencyReports", map[string]any{"etype": "fire", "severity": 3.0}); err != nil {
		t.Fatal(err)
	}
	awaitNotified(t, b, fs)

	parent := obs.NewSpan()
	req, err := http.NewRequest(http.MethodGet,
		brokerSrv.URL+"/v1/subscriptions/"+fs+"/results?subscriber=alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, parent.Traceparent())
	resp, err := brokerSrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results: %d: %s", resp.StatusCode, body)
	}
	var results ResultsResponse
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	if len(results.Results) == 0 || results.Results[0].FromCache {
		t.Fatalf("expected a cluster-fetched result, got %+v", results)
	}

	traceID := parent.TraceIDString()
	brokerLines := logLinesWithTrace(t, brokerLog, traceID)
	clusterLines := logLinesWithTrace(t, clusterLog, traceID)
	if len(brokerLines) == 0 {
		t.Fatalf("no broker log line carries trace %s:\n%s", traceID, brokerLog.String())
	}
	if len(clusterLines) == 0 {
		t.Fatalf("no cluster log line carries trace %s — trace was not propagated:\n%s", traceID, clusterLog.String())
	}
	// The cluster handled the fetch the broker issued inside the client's
	// request, in distinct child spans of the same trace.
	if brokerLines[0]["span_id"] == clusterLines[0]["span_id"] {
		t.Error("broker and cluster must log distinct spans of the shared trace")
	}
}

// TestSlowFetchWarningCarriesTrace checks the slow-fetch log line fires
// under the configured threshold and stays inside the request's trace.
func TestSlowFetchWarningCarriesTrace(t *testing.T) {
	brokerSrv, brokerLog, _, b := tracedPair(t, core.NC{}, 0)
	b.slowFetch = 0 // every fetch counts as slow

	fs, err := b.Subscribe("alice", "Alerts", []any{"flood"})
	if err != nil {
		t.Fatal(err)
	}
	cluster := b.backend.(*bdms.Client)
	if _, err := cluster.Ingest("EmergencyReports", map[string]any{"etype": "flood", "severity": 1.0}); err != nil {
		t.Fatal(err)
	}
	awaitNotified(t, b, fs)

	parent := obs.NewSpan()
	req, _ := http.NewRequest(http.MethodGet,
		brokerSrv.URL+"/v1/subscriptions/"+fs+"/results?subscriber=alice", nil)
	req.Header.Set(obs.TraceparentHeader, parent.Traceparent())
	resp, err := brokerSrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	found := false
	for _, line := range logLinesWithTrace(t, brokerLog, parent.TraceIDString()) {
		if line["msg"] == "slow backend fetch" {
			found = true
			if line["level"] != "WARN" {
				t.Errorf("slow fetch level = %v, want WARN", line["level"])
			}
		}
	}
	if !found {
		t.Errorf("no slow-fetch warning with the request's trace:\n%s", brokerLog.String())
	}
}

// TestBrokerMetricsEndpoint checks the broker's /metrics serves a valid
// exposition carrying the cache accounting and singleflight families.
func TestBrokerMetricsEndpoint(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)
	srv := httptest.NewServer(NewServer(env.broker).Handler())
	t.Cleanup(srv.Close)
	if _, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)
	if _, err := env.broker.RetrieveContext(context.Background(), "alice", env.broker.FrontendSubscriptions("alice")[0]); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	parsed, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("broker /metrics does not parse: %v\n%s", err, body)
	}
	for _, name := range []string{
		"bad_cache_hit_ratio", "bad_cache_requests_total",
		"bad_cache_hit_bytes_total", "bad_cache_fetch_bytes_total",
		"bad_cache_budget_bytes", "bad_singleflight_leader_total",
		"bad_singleflight_coalesced_total", "bad_frontend_subscriptions",
		"go_goroutines",
	} {
		if _, ok := parsed.Value(name); !ok {
			t.Errorf("broker /metrics missing %s", name)
		}
	}
	// The manager's table size is exported next to its byte total.
	if v, ok := parsed.Value("bad_cache_caches"); !ok || v < 1 {
		t.Errorf("broker /metrics bad_cache_caches = %v (present %v), want >= 1", v, ok)
	}
	if v, _ := parsed.Value("bad_cache_requests_total"); v == 0 {
		t.Error("requests counter should be live after a retrieval")
	}
}
