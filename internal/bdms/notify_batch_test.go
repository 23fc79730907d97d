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
)

// payloadRecorder is a callback endpoint that decodes and keeps every
// NotificationPayload it receives.
type payloadRecorder struct {
	mu       sync.Mutex
	payloads []bdms.NotificationPayload
}

func (rec *payloadRecorder) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var p bdms.NotificationPayload
		if err := httpx.ReadJSON(r, &p); err != nil {
			httpx.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		rec.mu.Lock()
		rec.payloads = append(rec.payloads, p)
		rec.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}
}

func (rec *payloadRecorder) snapshot() []bdms.NotificationPayload {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]bdms.NotificationPayload(nil), rec.payloads...)
}

func pushObj(id string, ts time.Duration) bdms.ResultObject {
	return bdms.ResultObject{ID: id, SubscriptionID: "sub-1", Timestamp: ts, Size: 10}
}

// TestWebhookBatchCoalescesPush: pushed results arriving within the flush
// window ride in one POST as a Results batch, oldest first, and the merges
// are tallied.
func TestWebhookBatchCoalescesPush(t *testing.T) {
	rec := &payloadRecorder{}
	cb := httptest.NewServer(rec.handler())
	defer cb.Close()

	n := bdms.NewWebhookNotifier(1, 16, cb.Client(),
		bdms.WithNotifierBatchWindow(30*time.Millisecond))
	n.NotifyPushContext(context.Background(), "sub-1", cb.URL, pushObj("r1", 1*time.Second))
	n.NotifyPushContext(context.Background(), "sub-1", cb.URL, pushObj("r2", 2*time.Second))
	n.NotifyPushContext(context.Background(), "sub-1", cb.URL, pushObj("r3", 3*time.Second))

	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	n.Close()

	got := rec.snapshot()
	if len(got) != 1 {
		t.Fatalf("POSTs = %d, want 1 coalesced delivery (payloads %+v)", len(got), got)
	}
	p := got[0]
	if p.SubscriptionID != "sub-1" || p.LatestNS != int64(3*time.Second) {
		t.Errorf("payload = %+v, want latest 3s", p)
	}
	if len(p.Results) != 3 || p.Results[0].ID != "r1" || p.Results[2].ID != "r3" {
		t.Errorf("results = %+v, want r1..r3 oldest first", p.Results)
	}
	if c := n.Stats().Coalesced.Load(); c != 2 {
		t.Errorf("coalesced = %d, want 2", c)
	}
}

// TestWebhookBatchPullLatestWins: PULL notifications are cumulative, so a
// window's worth collapses to a single POST carrying only the newest
// timestamp.
func TestWebhookBatchPullLatestWins(t *testing.T) {
	rec := &payloadRecorder{}
	cb := httptest.NewServer(rec.handler())
	defer cb.Close()

	n := bdms.NewWebhookNotifier(1, 16, cb.Client(),
		bdms.WithNotifierBatchWindow(30*time.Millisecond))
	n.NotifyContext(context.Background(), "sub-1", cb.URL, 1*time.Second)
	n.NotifyContext(context.Background(), "sub-1", cb.URL, 3*time.Second)
	n.NotifyContext(context.Background(), "sub-1", cb.URL, 2*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	n.Close()

	got := rec.snapshot()
	if len(got) != 1 {
		t.Fatalf("POSTs = %d, want 1", len(got))
	}
	p := got[0]
	if p.LatestNS != int64(3*time.Second) || len(p.Results) != 0 {
		t.Errorf("payload = %+v, want bare latest 3s", p)
	}
}

// TestWebhookBatchCloseFlushes: Close must not strand a pending batch, and
// a single pushed result is a one-element Results whether it waited in a
// batch (a window that never fires on its own) or went out immediately.
func TestWebhookBatchCloseFlushes(t *testing.T) {
	for _, window := range []time.Duration{time.Minute, 0} {
		rec := &payloadRecorder{}
		cb := httptest.NewServer(rec.handler())

		n := bdms.NewWebhookNotifier(1, 16, cb.Client(), bdms.WithNotifierBatchWindow(window))
		n.NotifyPushContext(context.Background(), "sub-1", cb.URL, pushObj("r1", 1*time.Second))
		n.Close()
		cb.Close()

		got := rec.snapshot()
		if len(got) != 1 {
			t.Fatalf("window %v: POSTs = %d, want 1 flushed on Close", window, len(got))
		}
		p := got[0]
		if p.LatestNS != int64(time.Second) || len(p.Results) != 1 || p.Results[0].ID != "r1" {
			t.Errorf("window %v: payload = %+v, want the one result in Results", window, p)
		}
	}
}

// TestWebhookBatchNotifyAfterClose: a notification arriving after Close has
// begun must be counted as dropped, never parked in a fresh batch whose
// timer outlives the notifier.
func TestWebhookBatchNotifyAfterClose(t *testing.T) {
	rec := &payloadRecorder{}
	cb := httptest.NewServer(rec.handler())
	defer cb.Close()

	n := bdms.NewWebhookNotifier(1, 16, cb.Client(),
		bdms.WithNotifierBatchWindow(time.Minute))
	n.Close()
	n.NotifyContext(context.Background(), "sub-1", cb.URL, 1*time.Second)
	n.NotifyPushContext(context.Background(), "sub-1", cb.URL, pushObj("r1", 2*time.Second))

	if got := n.Stats().Dropped.Load(); got != 2 {
		t.Errorf("dropped = %d, want 2 post-close notifications shed", got)
	}
	if got := rec.snapshot(); len(got) != 0 {
		t.Errorf("POSTs = %+v, want none", got)
	}
}

// TestWebhookBatchCloseRaceAccounting races Notify against Close and checks
// at-least-once accounting conservation: every notification ends as exactly
// one of coalesced-into-a-batch, delivered (its batch POSTed), or dropped —
// nothing vanishes silently.
func TestWebhookBatchCloseRaceAccounting(t *testing.T) {
	rec := &payloadRecorder{}
	cb := httptest.NewServer(rec.handler())
	defer cb.Close()

	const senders, perSender = 4, 50
	n := bdms.NewWebhookNotifier(2, 64, cb.Client(),
		bdms.WithNotifierBatchWindow(time.Millisecond))
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				n.NotifyContext(context.Background(), "sub-1", cb.URL, time.Duration(i*perSender+j))
			}
		}(i)
	}
	n.Close()
	wg.Wait()

	// A flush timer that fired just before Close may still be mid-flight;
	// give the tallies a moment to converge.
	const total = senders * perSender
	deadline := time.Now().Add(5 * time.Second)
	var sum uint64
	for time.Now().Before(deadline) {
		s := n.Stats()
		sum = s.Coalesced.Load() + s.Delivered.Load() + s.Dropped.Load() + s.Lost.Load()
		if sum == total {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Errorf("accounted = %d, want %d (coalesced+delivered+dropped+lost)", sum, total)
}

// TestWebhookBatchSeparateBuckets: different subscriptions never share a
// batch even when they target the same callback.
func TestWebhookBatchSeparateBuckets(t *testing.T) {
	rec := &payloadRecorder{}
	cb := httptest.NewServer(rec.handler())
	defer cb.Close()

	n := bdms.NewWebhookNotifier(1, 16, cb.Client(),
		bdms.WithNotifierBatchWindow(30*time.Millisecond))
	n.NotifyContext(context.Background(), "sub-1", cb.URL, 1*time.Second)
	n.NotifyContext(context.Background(), "sub-2", cb.URL, 2*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Delivered.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	n.Close()

	got := rec.snapshot()
	if len(got) != 2 {
		t.Fatalf("POSTs = %d, want one per subscription", len(got))
	}
	seen := map[string]int64{}
	for _, p := range got {
		seen[p.SubscriptionID] = p.LatestNS
	}
	if seen["sub-1"] != int64(1*time.Second) || seen["sub-2"] != int64(2*time.Second) {
		t.Errorf("deliveries = %+v", seen)
	}
}
