package bdms_test

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/httpx"
	"gobad/internal/obs"
)

// TestWebhookRerouteToLiveBroker: a notification whose broker died is not
// abandoned when a BCS is configured — the dead callback is re-resolved to
// a live broker's address (same path) and delivered there.
func TestWebhookRerouteToLiveBroker(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteError(w, http.StatusInternalServerError, "broker is gone")
	}))
	defer dead.Close()

	got := make(chan string, 1)
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case got <- r.URL.Path:
		default:
		}
		httpx.WriteJSON(w, http.StatusOK, bdms.CallbackResponse{})
	}))
	defer live.Close()

	svc := bcs.NewService()
	if err := svc.Register("live-1", live.URL); err != nil {
		t.Fatal(err)
	}
	bcsSrv := httptest.NewServer(bcs.NewServer(svc).Handler())
	defer bcsSrv.Close()

	var logBuf bytes.Buffer
	vs := &noSleep{}
	n := bdms.NewWebhookNotifier(1, 16, nil,
		bdms.WithNotifierSleep(vs.sleep),
		bdms.WithNotifierMaxAttempts(2),
		bdms.WithNotifierLogger(slog.New(slog.NewJSONHandler(&logBuf, nil))),
		bdms.WithNotifierResolver(bdms.BCSCallbackResolver(bcs.NewClient(bcsSrv.URL, nil))))
	n.NotifyContext(context.Background(), "sub-1", dead.URL+"/v1/callbacks/results", 7*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	n.Close()

	s := n.Stats()
	if s.Delivered.Load() != 1 || s.Rerouted.Load() != 1 || s.Abandoned.Load() != 0 || s.Lost.Load() != 0 {
		t.Errorf("stats = delivered %d rerouted %d abandoned %d lost %d, want 1/1/0/0",
			s.Delivered.Load(), s.Rerouted.Load(), s.Abandoned.Load(), s.Lost.Load())
	}
	select {
	case path := <-got:
		if path != "/v1/callbacks/results" {
			t.Errorf("rerouted POST path = %q, want /v1/callbacks/results", path)
		}
	default:
		t.Error("live broker never received the rerouted notification")
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("rerouting")) {
		t.Error("reroute must be logged at WARN")
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("trace_id")) {
		t.Error("WARN log must carry the delivery's trace ID")
	}
}

// TestWebhookRerouteOnce: a reroute target that is also dead abandons the
// notification after its second attempt budget — no infinite broker
// ping-pong — and the abandonment is counted separately from other losses.
func TestWebhookRerouteOnce(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteError(w, http.StatusInternalServerError, "dead forever")
	}))
	defer dead.Close()

	resolves := 0
	var logBuf bytes.Buffer
	vs := &noSleep{}
	n := bdms.NewWebhookNotifier(1, 16, nil,
		bdms.WithNotifierSleep(vs.sleep),
		bdms.WithNotifierMaxAttempts(2),
		bdms.WithNotifierLogger(slog.New(slog.NewJSONHandler(&logBuf, nil))),
		bdms.WithNotifierResolver(func(deadCB string) (string, error) {
			resolves++
			return dead.URL + fmt.Sprintf("/other/%d", resolves), nil
		}))
	n.NotifyContext(context.Background(), "sub-1", dead.URL+"/v1/callbacks/results", time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Abandoned.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	n.Close()

	s := n.Stats()
	if s.Rerouted.Load() != 1 || s.Abandoned.Load() != 1 || s.Lost.Load() != 1 || s.Delivered.Load() != 0 {
		t.Errorf("stats = rerouted %d abandoned %d lost %d delivered %d, want 1/1/1/0",
			s.Rerouted.Load(), s.Abandoned.Load(), s.Lost.Load(), s.Delivered.Load())
	}
	if resolves != 1 {
		t.Errorf("resolver called %d times, want 1 (one reroute per item)", resolves)
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("webhook delivery abandoned")) {
		t.Error("abandonment must be logged at WARN")
	}
}

// TestWebhookRerouteSkipsDeadBroker: the BCS resolver never hands back the
// broker that just failed — when Assign picks it, another registered
// broker is used instead; with no alternative the item is abandoned.
func TestWebhookRerouteSkipsDeadBroker(t *testing.T) {
	svc := bcs.NewService()
	if err := svc.Register("only", "http://dead-broker:1"); err != nil {
		t.Fatal(err)
	}
	bcsSrv := httptest.NewServer(bcs.NewServer(svc).Handler())
	defer bcsSrv.Close()

	resolve := bdms.BCSCallbackResolver(bcs.NewClient(bcsSrv.URL, nil))
	if _, err := resolve("http://dead-broker:1/v1/callbacks/results"); err == nil {
		t.Error("resolver must refuse to hand back the dead broker itself")
	}

	if err := svc.Register("other", "http://live-broker:2/"); err != nil {
		t.Fatal(err)
	}
	// At equal load Assign prefers the lexically-smaller ID — "only" (the
	// dead broker) beats "other" — so this exercises the fallback scan over
	// the full broker list, not just a lucky Assign.
	next, err := resolve("http://dead-broker:1/v1/callbacks/results")
	if err != nil {
		t.Fatalf("resolve with an alternative registered: %v", err)
	}
	if next != "http://live-broker:2/v1/callbacks/results" {
		t.Errorf("resolved to %q, want the live broker with the original path", next)
	}
}

// TestRerouteCountersExported: the new tallies ride the same collector as
// the rest of the webhook counters.
func TestRerouteCountersExported(t *testing.T) {
	s := &bdms.NotifierStats{}
	s.Rerouted.Add(2)
	s.Abandoned.Add(3)
	got := map[string]float64{}
	s.Collector().Collect(func(f obs.Family) { got[f.Name] = f.Points[0].Value })
	if got["bad_webhook_rerouted_total"] != 2 || got["bad_webhook_abandoned_total"] != 3 {
		t.Errorf("collected = %v", got)
	}
}
