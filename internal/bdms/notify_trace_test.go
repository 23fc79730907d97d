package bdms_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/httpx"
	"gobad/internal/obs"
)

// traceRecorder is a callback endpoint that records the traceparent header
// of every delivery attempt, optionally failing the first few.
type traceRecorder struct {
	mu      sync.Mutex
	parents []string
	fail    int
}

func (rec *traceRecorder) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec.mu.Lock()
		rec.parents = append(rec.parents, r.Header.Get(obs.TraceparentHeader))
		n := len(rec.parents)
		rec.mu.Unlock()
		if n <= rec.fail {
			httpx.WriteError(w, http.StatusBadGateway, "broker restarting")
			return
		}
		httpx.WriteJSON(w, http.StatusOK, bdms.CallbackResponse{})
	}
}

func (rec *traceRecorder) traceIDs(t *testing.T) []string {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	ids := make([]string, len(rec.parents))
	for i, p := range rec.parents {
		sc, ok := obs.ParseTraceparent(p)
		if !ok {
			t.Fatalf("attempt %d carried unparseable traceparent %q", i+1, p)
		}
		ids[i] = sc.TraceIDString()
	}
	return ids
}

// TestWebhookRetryPreservesTrace: every redelivery attempt of one
// notification carries the originating trace ID, so a flaky broker's
// at-least-once redeliveries stay attributable to the publication that
// caused them.
func TestWebhookRetryPreservesTrace(t *testing.T) {
	rec := &traceRecorder{fail: 2}
	cb := httptest.NewServer(rec.handler())
	defer cb.Close()

	vs := &noSleep{}
	n := bdms.NewWebhookNotifier(1, 16, cb.Client(),
		bdms.WithNotifierSleep(vs.sleep),
		bdms.WithNotifierBackoff(time.Millisecond, time.Millisecond))

	origin := obs.NewSpan()
	ctx := obs.ContextWithSpan(context.Background(), origin)
	n.NotifyContext(ctx, "sub-1", cb.URL, 7*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	n.Close()

	ids := rec.traceIDs(t)
	if len(ids) != 3 {
		t.Fatalf("attempts = %d, want 3 (2 failed + 1 delivered)", len(ids))
	}
	for i, id := range ids {
		if id != origin.TraceIDString() {
			t.Errorf("attempt %d trace = %s, want originating trace %s", i+1, id, origin.TraceIDString())
		}
	}
}

// TestWebhookBatchAdoptsFirstTrace: an envelope's POST carries the trace
// of its FIRST contributor — later contributors, whether they merge into
// its entry or add one, join the envelope, they don't re-root it.
func TestWebhookBatchAdoptsFirstTrace(t *testing.T) {
	g := newGatedCallback(t)
	n := bdms.NewWebhookNotifier(1, 16, g.Client())
	g.hold(t, n)

	first, second, third := obs.NewSpan(), obs.NewSpan(), obs.NewSpan()
	n.NotifyPushContext(obs.ContextWithSpan(context.Background(), first),
		"sub-1", g.URL, bdms.ResultObject{ID: "r1", SubscriptionID: "sub-1", Timestamp: time.Second})
	n.NotifyPushContext(obs.ContextWithSpan(context.Background(), second),
		"sub-1", g.URL, bdms.ResultObject{ID: "r2", SubscriptionID: "sub-1", Timestamp: 2 * time.Second})
	n.NotifyContext(obs.ContextWithSpan(context.Background(), third), "sub-2", g.URL, 3*time.Second)
	g.release <- nil
	if got := g.next(t); len(got) != 2 {
		t.Fatalf("envelope = %+v, want both subscriptions in one POST", got)
	}
	g.release <- nil
	n.Close()

	g.mu.Lock()
	defer g.mu.Unlock()
	sc, ok := obs.ParseTraceparent(g.parents[1])
	if !ok {
		t.Fatalf("envelope carried unparseable traceparent %q", g.parents[1])
	}
	if got := sc.TraceIDString(); got != first.TraceIDString() {
		t.Errorf("envelope trace = %s, want first contributor's %s (not %s or %s)",
			got, first.TraceIDString(), second.TraceIDString(), third.TraceIDString())
	}
}
