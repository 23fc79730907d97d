package broker

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/httpx"
	"gobad/internal/obs"
)

func healthStatus(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	var out map[string]string
	if err := httpx.DoJSON(srv.Client(), http.MethodGet, srv.URL+path, nil, &out); err != nil {
		t.Fatal(err)
	}
	return out["status"]
}

// TestHealthzReadinessStates: /v1/healthz (and the unversioned alias)
// report ok → warming → ok → draining as the broker moves through a
// restart-and-drain lifecycle, so orchestrators and fabric peers can gate
// on readiness.
func TestHealthzReadinessStates(t *testing.T) {
	env, srv := newHTTPEnv(t)
	if got := healthStatus(t, srv, "/v1/healthz"); got != "ok" {
		t.Errorf("fresh broker status = %q, want ok", got)
	}
	env.broker.SetWarming(true)
	if got := healthStatus(t, srv, "/v1/healthz"); got != "warming" {
		t.Errorf("status = %q, want warming", got)
	}
	if got := healthStatus(t, srv, "/healthz"); got != "warming" {
		t.Errorf("unversioned alias status = %q, want warming", got)
	}
	env.broker.SetWarming(false)
	if got := healthStatus(t, srv, "/v1/healthz"); got != "ok" {
		t.Errorf("status = %q, want ok after warm-up", got)
	}
	env.broker.Drain(t.Context(), "")
	if got := healthStatus(t, srv, "/v1/healthz"); got != "draining" {
		t.Errorf("status = %q, want draining", got)
	}
}

// TestPeerWarmupEndpoint: a predecessor's cache snapshot POSTed to
// /v1/peer/warmup is stashed and then consumed by the matching subscribe.
func TestPeerWarmupEndpoint(t *testing.T) {
	env, srv := newHTTPEnv(t)
	snap := bdms.CacheSnapshot{
		Version:     bdms.CacheSnapshotVersion,
		Broker:      "predecessor",
		TakenUnixNS: time.Now().UnixNano(),
		Entries: []bdms.CacheWarmEntry{{
			FabricKey: FabricKey("Alerts", []any{"fire"}),
			Channel:   "Alerts", Params: []any{"fire"}, BTSNS: 1,
		}},
	}
	var resp bdms.WarmupResponse
	if err := httpx.DoJSON(srv.Client(), http.MethodPost, srv.URL+"/v1/peer/warmup", snap, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stashed != 1 || resp.Applied != 0 || resp.Dropped != 0 {
		t.Errorf("warmup response = %+v, want 1 stashed", resp)
	}
	if env.broker.WarmStashSize() != 1 {
		t.Errorf("stash size = %d, want 1", env.broker.WarmStashSize())
	}
	if _, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	if env.broker.WarmStashSize() != 0 {
		t.Errorf("stash size = %d, want 0 after the matching subscribe", env.broker.WarmStashSize())
	}
	if hits := env.broker.WarmupStats().Hits.Value(); hits != 1 {
		t.Errorf("warmup hits = %v, want 1", hits)
	}
}

// TestPeerWarmupVersionOneDropped: a version-1 snapshot (objects with
// ts_ns and fetch_latency_ns, from a broker before warm objects became
// result records) is dropped whole by the version check and counted on
// /metrics, so a mixed-version fabric loses a warm start, never data.
func TestPeerWarmupVersionOneDropped(t *testing.T) {
	env, srv := newHTTPEnv(t)
	body := fmt.Sprintf(`{"version":1,"broker":"old","taken_unix_ns":%d,"entries":[`+
		`{"fabric_key":%q,"channel":"Alerts","params":["fire"],"bts_ns":2,"objects":[`+
		`{"id":"r1","ts_ns":1,"size":2,"fetch_latency_ns":500000000,"rows":[{}]}]},`+
		`{"fabric_key":"fk-other","channel":"Alerts","params":["flood"],"bts_ns":2,"objects":[]}]}`,
		time.Now().UnixNano(), FabricKey("Alerts", []any{"fire"}))
	var resp bdms.WarmupResponse
	if err := httpx.DoJSON(srv.Client(), http.MethodPost, srv.URL+"/v1/peer/warmup", json.RawMessage(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dropped != 2 || resp.Applied != 0 || resp.Stashed != 0 {
		t.Errorf("version-1 intake = %+v, want both entries dropped", resp)
	}
	if env.broker.WarmStashSize() != 0 {
		t.Errorf("stash size = %d, want 0", env.broker.WarmStashSize())
	}
	var buf bytes.Buffer
	if err := NewServer(env.broker).Observer().Registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := parsed.Value("bad_warmup_entries_dropped_total"); got != 2 {
		t.Errorf("bad_warmup_entries_dropped_total = %v, want 2", got)
	}
}

// TestPeerWarmupDrainingRefuses: a draining broker must not absorb a
// snapshot it is about to hand off itself.
func TestPeerWarmupDrainingRefuses(t *testing.T) {
	env, srv := newHTTPEnv(t)
	env.broker.Drain(t.Context(), "")
	snap := bdms.CacheSnapshot{Version: bdms.CacheSnapshotVersion, Broker: "p"}
	err := httpx.DoJSON(srv.Client(), http.MethodPost, srv.URL+"/v1/peer/warmup", snap, nil)
	var se *httpx.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.Code != bdms.CodePeerDraining {
		t.Fatalf("draining warmup err = %v, want 503 %s", err, bdms.CodePeerDraining)
	}
}

// TestPeerWarmupBadBody: malformed JSON is a 400, not a panic or a hang.
func TestPeerWarmupBadBody(t *testing.T) {
	_, srv := newHTTPEnv(t)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/peer/warmup", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body status = %d, want 400", res.StatusCode)
	}
}

// TestWarmupMetricsExposed: the warm-handoff counters are on /metrics.
func TestWarmupMetricsExposed(t *testing.T) {
	env, srv := newHTTPEnv(t)
	env.broker.InstallWarmup(t.Context(), bdms.CacheSnapshot{
		Version:     bdms.CacheSnapshotVersion,
		TakenUnixNS: time.Now().UnixNano(),
		Entries:     []bdms.CacheWarmEntry{{FabricKey: "fk", Channel: "Alerts", BTSNS: 1}},
	})
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	parsed, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("broker /metrics does not parse: %v\n%s", err, body)
	}
	for name, want := range map[string]float64{
		"bad_warmup_entries_stashed_total": 1,
		"bad_warmup_entries_applied_total": 0,
		"bad_warmup_entries_dropped_total": 0,
		"bad_warmup_hits_total":            0,
		"bad_warmup_misses_total":          0,
		"bad_warmup_objects_total":         0,
		"bad_warmup_stash_entries":         1,
	} {
		got, ok := parsed.Value(name)
		if !ok {
			t.Errorf("broker /metrics missing %s", name)
		} else if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
