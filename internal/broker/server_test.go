package broker

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/httpx"
	"gobad/internal/wsock"
)

// newHTTPEnv serves a broker (with in-process cluster backend) over HTTP.
func newHTTPEnv(t *testing.T) (*testEnv, *httptest.Server) {
	t.Helper()
	env := newTestEnv(t, core.LSC{}, 1<<20)
	srv := httptest.NewServer(NewServer(env.broker).Handler())
	t.Cleanup(srv.Close)
	return env, srv
}

func TestServerHealth(t *testing.T) {
	_, srv := newHTTPEnv(t)
	var out map[string]string
	if err := httpx.DoJSON(srv.Client(), http.MethodGet, srv.URL+"/healthz", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out["broker"] != "broker-1" {
		t.Errorf("health = %v", out)
	}
}

func TestServerSubscribeFlow(t *testing.T) {
	env, srv := newHTTPEnv(t)
	var subResp SubscribeResponse
	err := httpx.DoJSON(srv.Client(), http.MethodPost, srv.URL+"/v1/subscriptions",
		SubscribeRequest{Subscriber: "alice", Channel: "Alerts", Params: []any{"fire"}}, &subResp)
	if err != nil {
		t.Fatal(err)
	}
	if subResp.FrontendSub == "" {
		t.Fatal("empty fs")
	}
	env.publish(t, "fire", 3)

	var results ResultsResponse
	u := srv.URL + "/v1/subscriptions/" + subResp.FrontendSub + "/results?subscriber=alice"
	if err := httpx.DoJSON(srv.Client(), http.MethodGet, u, nil, &results); err != nil {
		t.Fatal(err)
	}
	if len(results.Results) != 1 || !results.Results[0].FromCache {
		t.Fatalf("results = %+v", results)
	}
	// The next GET carries the ack: nothing is served again.
	if err := httpx.DoJSON(srv.Client(), http.MethodGet, fmt.Sprintf("%s&ack=%d", u, results.LatestNS), nil, &results); err != nil {
		t.Fatal(err)
	}
	if len(results.Results) != 0 {
		t.Fatalf("results after the ack = %+v, want none", results)
	}
	// List.
	var subs map[string][]string
	err = httpx.DoJSON(srv.Client(), http.MethodGet,
		srv.URL+"/v1/subscribers/alice/subscriptions", nil, &subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs["subscriptions"]) != 1 {
		t.Errorf("subs = %v", subs)
	}
	// Unsubscribe.
	err = httpx.DoJSON(srv.Client(), http.MethodDelete,
		srv.URL+"/v1/subscriptions/"+subResp.FrontendSub+"?subscriber=alice", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestServerStatsAndCaches(t *testing.T) {
	env, srv := newHTTPEnv(t)
	if _, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 3)

	var stats StatsResponse
	if err := httpx.DoJSON(srv.Client(), http.MethodGet, srv.URL+"/v1/stats", nil, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Policy != "LSC" || stats.FrontendSubs != 1 || stats.BackendSubs != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.CachedBytes <= 0 {
		t.Error("cached bytes should be positive after a publication")
	}

	var caches map[string][]core.CacheInfo
	if err := httpx.DoJSON(srv.Client(), http.MethodGet, srv.URL+"/v1/caches", nil, &caches); err != nil {
		t.Fatal(err)
	}
	if len(caches["caches"]) != 1 || caches["caches"][0].Objects != 1 {
		t.Errorf("caches = %+v", caches)
	}
}

func TestServerErrorStatuses(t *testing.T) {
	_, srv := newHTTPEnv(t)
	checks := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/subscriptions", `{"subscriber":"","channel":""}`, http.StatusBadRequest},
		{"POST", "/v1/subscriptions", `not json`, http.StatusBadRequest},
		{"GET", "/v1/subscriptions/nope/results?subscriber=x", "", http.StatusNotFound},
		{"GET", "/v1/subscriptions/nope/results?subscriber=x&ack=1", "", http.StatusNotFound},
		{"DELETE", "/v1/subscriptions/nope?subscriber=x", "", http.StatusNotFound},
		{"POST", "/v1/callbacks/results", `not json`, http.StatusBadRequest},
		{"GET", "/v1/ws", "", http.StatusBadRequest}, // missing subscriber
	}
	for _, c := range checks {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
	// A well-formed callback is always 200; what the broker could not take
	// is in the body.
	var refused bdms.CallbackResponse
	err := httpx.DoJSON(srv.Client(), http.MethodPost, srv.URL+"/v1/callbacks/results",
		bdms.NotificationPayload{SubscriptionID: "ghost", LatestNS: 99}, &refused)
	if want := []bdms.FailedEntry{{SubscriptionID: "ghost", Code: httpx.CodeNotFound}}; err != nil || !reflect.DeepEqual(refused.Failed, want) {
		t.Errorf("callback for an unknown subscription: %+v, %v; want %+v", refused.Failed, err, want)
	}
}

func TestServerWebSocketPush(t *testing.T) {
	env, srv := newHTTPEnv(t)
	fs, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := wsock.Dial(srv.URL+"/v1/ws?subscriber=alice", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	env.publish(t, "fire", 4)
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, payload, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	var n PushNotification
	if err := json.Unmarshal(payload, &n); err != nil {
		t.Fatal(err)
	}
	// The shared wire form names the backend subscription, not the
	// per-subscriber frontend one — that's what lets the broker encode it
	// once per event.
	bs, err := env.broker.BackendSubID("alice", fs)
	if err != nil {
		t.Fatal(err)
	}
	if n.BackendSub != bs || n.FrontendSub != "" || n.Type != "results" {
		t.Errorf("push = %+v, want bs %q", n, bs)
	}
}

func TestServerWebSocketReplacesSession(t *testing.T) {
	env, srv := newHTTPEnv(t)
	if _, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	c1, err := wsock.Dial(srv.URL+"/v1/ws?subscriber=alice", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := wsock.Dial(srv.URL+"/v1/ws?subscriber=alice", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// The first connection gets closed by the hub.
	if err := c1.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.ReadMessage(); err == nil {
		t.Error("first session should be torn down when replaced")
	}
	// The second receives pushes.
	env.publish(t, "fire", 1)
	if err := c2.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.ReadMessage(); err != nil {
		t.Errorf("replacement session should receive pushes: %v", err)
	}
}

func TestServerPushCallback(t *testing.T) {
	// A PUSH-model webhook payload caches the carried result directly.
	env, srv := newHTTPEnv(t)
	if _, err := env.broker.Subscribe("alice", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	bsID := cacheIDOf(t, env.broker)
	payload := bdms.NotificationPayload{
		SubscriptionID: bsID,
		LatestNS:       int64(42 * time.Second),
		Results: []bdms.ResultObject{{
			ID: "pushed-1", SubscriptionID: bsID,
			Timestamp: 42 * time.Second, Size: 64,
			Rows: json.RawMessage(`[{"etype":"fire"}]`),
		}},
	}
	err := httpx.DoJSON(srv.Client(), http.MethodPost, srv.URL+"/v1/callbacks/results", payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := env.broker.Manager().Cache(bsID).Len(); got != 1 {
		t.Errorf("cache has %d objects after pushed callback, want 1", got)
	}
}

// TestAttachBeforeHandshakeAnswer: the 101 is written only after the
// session and its interest-index entries exist, so the moment a dial
// returns — no wait, no poll — the subscriber is online and in the audience
// of every subscription it held when it dialled.
func TestAttachBeforeHandshakeAnswer(t *testing.T) {
	env, srv := newHTTPEnv(t)
	var subs []string
	for _, etype := range []string{"fire", "flood", "quake"} {
		fs, err := env.broker.Subscribe("alice", "Alerts", []any{etype})
		if err != nil {
			t.Fatal(err)
		}
		bs, err := env.broker.BackendSubID("alice", fs)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, bs)
	}
	for round := 0; round < 20; round++ { // each dial replaces the previous session
		conn, err := wsock.Dial(srv.URL+"/v1/ws?subscriber=alice", 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !env.broker.Online("alice") {
			t.Fatalf("round %d: dial returned before the session was attached", round)
		}
		for _, bs := range subs {
			if got := env.broker.sessions.audienceSize(bs); got != 1 {
				t.Fatalf("round %d: audience of %s = %d when the dial returned, want 1", round, bs, got)
			}
		}
		t.Cleanup(func() { _ = conn.Close() })
	}
}
