package bdms_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/httpx"
	"gobad/internal/obs"
)

// gatedCallback is a callback endpoint that keeps every envelope it
// receives (and its traceparent) and holds each POST open until the test
// lets it answer, so "behind an in-flight POST" is a state the test is in,
// not a race it hopes to win.
type gatedCallback struct {
	*httptest.Server
	arrived chan bdms.NotificationPayload // one per POST, sent before it blocks
	release chan any                      // one answer per POST: nil, an int status, or a bdms.CallbackResponse

	mu      sync.Mutex
	parents []string
}

func newGatedCallback(t *testing.T) *gatedCallback {
	t.Helper()
	g := &gatedCallback{arrived: make(chan bdms.NotificationPayload, 64), release: make(chan any, 64)}
	g.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p bdms.NotificationPayload
		if err := httpx.ReadJSON(r, &p); err != nil {
			httpx.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		g.mu.Lock()
		g.parents = append(g.parents, r.Header.Get(obs.TraceparentHeader))
		g.mu.Unlock()
		g.arrived <- p
		switch answer := (<-g.release).(type) {
		case int:
			httpx.WriteError(w, answer, "gated failure")
		case bdms.CallbackResponse:
			httpx.WriteJSON(w, http.StatusOK, answer)
		default:
			httpx.WriteJSON(w, http.StatusOK, bdms.CallbackResponse{})
		}
	}))
	t.Cleanup(g.Close)
	return g
}

// next waits for the next POST to reach the handler and returns its
// entries, head first.
func (g *gatedCallback) next(t *testing.T) []bdms.NotificationPayload {
	t.Helper()
	select {
	case p := <-g.arrived:
		return p.Entries()
	case <-time.After(5 * time.Second):
		t.Fatal("no POST reached the callback")
		return nil
	}
}

// idle fails the test if another POST arrives within the grace period.
func (g *gatedCallback) idle(t *testing.T) {
	t.Helper()
	select {
	case p := <-g.arrived:
		t.Fatalf("unexpected extra POST: %+v", p)
	case <-time.After(50 * time.Millisecond):
	}
}

// hold opens the gate's first POST — one PULL notification for "gate-sub" —
// and leaves it in flight.
func (g *gatedCallback) hold(t *testing.T, n *bdms.WebhookNotifier) {
	t.Helper()
	n.NotifyContext(context.Background(), "gate-sub", g.URL, time.Nanosecond)
	if got := g.next(t); len(got) != 1 || got[0].SubscriptionID != "gate-sub" {
		t.Fatalf("gate POST = %+v", got)
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func pushObj(id string, ts time.Duration) bdms.ResultObject {
	return bdms.ResultObject{ID: id, SubscriptionID: "sub-1", Timestamp: ts, Size: 10}
}

// TestWebhookBatchSeparateBuckets: K notifications accepted behind an
// in-flight POST leave as exactly one more POST, and different
// subscriptions stay different entries of it, in arrival order.
func TestWebhookBatchSeparateBuckets(t *testing.T) {
	g := newGatedCallback(t)
	n := bdms.NewWebhookNotifier(1, 64, g.Client())
	g.hold(t, n)
	const k = 5
	for i := 0; i < k; i++ {
		n.NotifyContext(context.Background(), fmt.Sprintf("sub-%d", i), g.URL, time.Duration(i+1)*time.Second)
	}
	g.idle(t) // one POST per callback: nothing leaves while the first is open
	g.release <- nil
	got := g.next(t)
	if len(got) != k {
		t.Fatalf("second POST carried %d entries, want %d", len(got), k)
	}
	for i, e := range got {
		if e.SubscriptionID != fmt.Sprintf("sub-%d", i) || e.LatestNS != int64(time.Duration(i+1)*time.Second) || len(e.More) != 0 {
			t.Errorf("entry %d = %+v", i, e)
		}
	}
	g.release <- nil
	n.Close()
	g.idle(t)
	s := n.Stats()
	if s.Posts.Load() != 2 || s.Entries.Load() != k+1 || s.Delivered.Load() != k+1 || s.Coalesced.Load() != 0 {
		t.Errorf("posts %d entries %d delivered %d coalesced %d, want 2/%d/%d/0",
			s.Posts.Load(), s.Entries.Load(), s.Delivered.Load(), s.Coalesced.Load(), k+1, k+1)
	}
}

// TestWebhookBatchPullLatestWins: PULL notifications are cumulative, so
// those of one subscription collapse to one entry carrying only the newest
// timestamp — and still count as three notifications delivered.
func TestWebhookBatchPullLatestWins(t *testing.T) {
	g := newGatedCallback(t)
	n := bdms.NewWebhookNotifier(1, 16, g.Client())
	g.hold(t, n)
	n.NotifyContext(context.Background(), "sub-1", g.URL, 1*time.Second)
	n.NotifyContext(context.Background(), "sub-1", g.URL, 3*time.Second)
	n.NotifyContext(context.Background(), "sub-1", g.URL, 2*time.Second)
	g.release <- nil
	got := g.next(t)
	g.release <- nil
	n.Close()

	if len(got) != 1 || got[0].LatestNS != int64(3*time.Second) || len(got[0].Results) != 0 {
		t.Errorf("envelope = %+v, want one bare entry at 3s", got)
	}
	if s := n.Stats(); s.Coalesced.Load() != 2 || s.Delivered.Load() != 4 || s.Posts.Load() != 2 {
		t.Errorf("coalesced %d delivered %d posts %d, want 2/4/2", s.Coalesced.Load(), s.Delivered.Load(), s.Posts.Load())
	}
}

// TestWebhookBatchCoalescesPush: pushed results of one subscription
// accumulate in its entry, oldest first, and the merges are tallied.
func TestWebhookBatchCoalescesPush(t *testing.T) {
	g := newGatedCallback(t)
	n := bdms.NewWebhookNotifier(1, 16, g.Client())
	g.hold(t, n)
	n.NotifyPushContext(context.Background(), "sub-1", g.URL, pushObj("r1", 1*time.Second))
	n.NotifyPushContext(context.Background(), "sub-1", g.URL, pushObj("r2", 2*time.Second))
	n.NotifyPushContext(context.Background(), "sub-1", g.URL, pushObj("r3", 3*time.Second))
	g.release <- nil
	got := g.next(t)
	g.release <- nil
	n.Close()

	if len(got) != 1 {
		t.Fatalf("envelope = %+v, want one entry", got)
	}
	p := got[0]
	if p.SubscriptionID != "sub-1" || p.LatestNS != int64(3*time.Second) {
		t.Errorf("entry = %+v, want latest 3s", p)
	}
	if len(p.Results) != 3 || p.Results[0].ID != "r1" || p.Results[2].ID != "r3" {
		t.Errorf("results = %+v, want r1..r3 oldest first", p.Results)
	}
	if c := n.Stats().Coalesced.Load(); c != 2 {
		t.Errorf("coalesced = %d, want 2", c)
	}
}

// TestWebhookBatchCloseFlushes: Close drains — the POST in flight finishes,
// what waited behind it still leaves — and nothing of the notifier (no
// goroutine, no timer) outlives it.
func TestWebhookBatchCloseFlushes(t *testing.T) {
	g := newGatedCallback(t)
	before := runtime.NumGoroutine()
	n := bdms.NewWebhookNotifier(1, 16, g.Client())
	g.hold(t, n)
	n.NotifyPushContext(context.Background(), "sub-1", g.URL, pushObj("r1", 1*time.Second))
	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	g.release <- nil
	got := g.next(t)
	select {
	case <-closed:
		t.Fatal("Close returned with a POST still in flight")
	default:
	}
	g.release <- nil
	<-closed
	if len(got) != 1 || got[0].LatestNS != int64(time.Second) || len(got[0].Results) != 1 || got[0].Results[0].ID != "r1" {
		t.Errorf("flushed envelope = %+v, want the one result in Results", got)
	}
	if s := n.Stats(); s.Delivered.Load() != 2 || s.Lost.Load()+s.Dropped.Load() != 0 {
		t.Errorf("delivered %d lost %d dropped %d, want 2/0/0", s.Delivered.Load(), s.Lost.Load(), s.Dropped.Load())
	}
	g.Client().CloseIdleConnections()
	waitFor(t, "the notifier's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before+1 })
}

// TestWebhookBatchNotifyAfterClose: a notification arriving after Close has
// begun must be counted as dropped, never parked in an outbox nobody
// drains.
func TestWebhookBatchNotifyAfterClose(t *testing.T) {
	g := newGatedCallback(t)
	n := bdms.NewWebhookNotifier(1, 16, g.Client())
	n.Close()
	n.NotifyContext(context.Background(), "sub-1", g.URL, 1*time.Second)
	n.NotifyPushContext(context.Background(), "sub-1", g.URL, pushObj("r1", 2*time.Second))

	if got := n.Stats().Dropped.Load(); got != 2 {
		t.Errorf("dropped = %d, want 2 post-close notifications shed", got)
	}
	g.idle(t)
}

// TestWebhookBatchCloseRaceAccounting races Notify against Close and checks
// the accounting contract: every notification handed over ends as exactly
// one of delivered, dropped or lost, however many shared an entry or a POST.
func TestWebhookBatchCloseRaceAccounting(t *testing.T) {
	cb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, bdms.CallbackResponse{})
	}))
	defer cb.Close()

	const senders, perSender = 4, 50
	n := bdms.NewWebhookNotifier(2, 64, cb.Client())
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				n.NotifyContext(context.Background(), fmt.Sprintf("sub-%d", j%3), cb.URL, time.Duration(i*perSender+j))
			}
		}(i)
	}
	n.Close()
	wg.Wait()

	s := n.Stats()
	if sum := s.Delivered.Load() + s.Dropped.Load() + s.Lost.Load(); sum != senders*perSender {
		t.Errorf("accounted = %d, want %d (delivered+dropped+lost)", sum, senders*perSender)
	}
	if s.Entries.Load()+s.Coalesced.Load() != s.Delivered.Load() {
		t.Errorf("entries %d + coalesced %d != delivered %d", s.Entries.Load(), s.Coalesced.Load(), s.Delivered.Load())
	}
}

// gatedSleep is a backoff sleeper the test ends by hand.
type gatedSleep struct{ entered, leave chan struct{} }

func (g *gatedSleep) sleep(ctx context.Context, _ time.Duration) error {
	g.entered <- struct{}{}
	select {
	case <-g.leave:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestWebhookOutboxRetriedAsUnit: an envelope whose POST fails sits its
// backoff out as a unit and comes back whole — in front of what its
// subscriptions accepted meanwhile — as one more POST, every entry tallied.
func TestWebhookOutboxRetriedAsUnit(t *testing.T) {
	g := newGatedCallback(t)
	backoff := &gatedSleep{entered: make(chan struct{}, 1), leave: make(chan struct{})}
	n := bdms.NewWebhookNotifier(1, 16, g.Client(), bdms.WithNotifierSleep(backoff.sleep))
	g.hold(t, n)
	n.NotifyPushContext(context.Background(), "sub-1", g.URL, pushObj("r1", 1*time.Second))
	n.NotifyContext(context.Background(), "sub-2", g.URL, 2*time.Second)
	g.release <- nil
	if got := g.next(t); len(got) != 2 {
		t.Fatalf("envelope = %+v, want two entries", got)
	}
	g.release <- http.StatusBadGateway
	<-backoff.entered
	// The failed envelope is out for its backoff: the callback's stream
	// keeps moving, and sub-1 accepts a newer push behind the open POST.
	g.hold(t, n)
	n.NotifyPushContext(context.Background(), "sub-1", g.URL, pushObj("r2", 3*time.Second))
	close(backoff.leave)
	waitFor(t, "the failed envelope to return to the outbox", func() bool { return n.Stats().Redelivered.Load() == 2 })
	g.release <- nil
	retry := g.next(t)
	g.release <- nil
	n.Close()
	g.idle(t)

	if len(retry) != 2 {
		t.Fatalf("retry = %+v, want the two entries in one POST", retry)
	}
	if retry[0].SubscriptionID != "sub-1" || len(retry[0].Results) != 2 ||
		retry[0].Results[0].ID != "r1" || retry[0].Results[1].ID != "r2" || retry[0].LatestNS != int64(3*time.Second) {
		t.Errorf("retried head = %+v, want sub-1 with r1 in front of r2", retry[0])
	}
	if retry[1].SubscriptionID != "sub-2" || retry[1].LatestNS != int64(2*time.Second) {
		t.Errorf("retried second entry = %+v, want sub-2 at 2s", retry[1])
	}
	s := n.Stats()
	if s.Delivered.Load() != 5 || s.Lost.Load() != 0 || s.Failed.Load() != 2 || s.Posts.Load() != 4 {
		t.Errorf("delivered %d lost %d failed %d posts %d, want 5/0/2/4",
			s.Delivered.Load(), s.Lost.Load(), s.Failed.Load(), s.Posts.Load())
	}
}

// TestWebhookOutboxRedeliversOnlyRefused: a callback that takes an envelope
// but lists an entry as failed gets that entry again, alone.
func TestWebhookOutboxRedeliversOnlyRefused(t *testing.T) {
	g := newGatedCallback(t)
	vs := &noSleep{}
	n := bdms.NewWebhookNotifier(1, 16, g.Client(), bdms.WithNotifierSleep(vs.sleep))
	g.hold(t, n)
	for _, sub := range []string{"sub-1", "sub-2", "sub-3"} {
		n.NotifyContext(context.Background(), sub, g.URL, time.Second)
	}
	g.release <- nil
	if got := g.next(t); len(got) != 3 {
		t.Fatalf("envelope = %+v, want three entries", got)
	}
	g.release <- bdms.CallbackResponse{Failed: []bdms.FailedEntry{{SubscriptionID: "sub-2", Code: httpx.CodeNotFound}}}
	again := g.next(t)
	g.release <- nil
	n.Close()
	g.idle(t)

	if len(again) != 1 || again[0].SubscriptionID != "sub-2" {
		t.Errorf("redelivery = %+v, want sub-2 alone", again)
	}
	s := n.Stats()
	if s.Delivered.Load() != 4 || s.Failed.Load() != 1 || s.Redelivered.Load() != 1 || s.Posts.Load() != 3 {
		t.Errorf("delivered %d failed %d redelivered %d posts %d, want 4/1/1/3",
			s.Delivered.Load(), s.Failed.Load(), s.Redelivered.Load(), s.Posts.Load())
	}
}

// TestWebhookOutboxRerouteMovesEnvelope: entries that run out of attempts
// together move together — one resolver call, one POST at the replacement
// callback carrying them all, each counted rerouted.
func TestWebhookOutboxRerouteMovesEnvelope(t *testing.T) {
	dead, live := newGatedCallback(t), newGatedCallback(t)
	resolves := 0
	vs := &noSleep{}
	n := bdms.NewWebhookNotifier(2, 16, dead.Client(),
		bdms.WithNotifierSleep(vs.sleep),
		bdms.WithNotifierMaxAttempts(2),
		bdms.WithNotifierResolver(func(string) (string, error) {
			resolves++
			return live.URL, nil
		}))
	dead.hold(t, n)
	for _, sub := range []string{"sub-1", "sub-2", "sub-3"} {
		n.NotifyContext(context.Background(), sub, dead.URL, time.Second)
	}
	dead.release <- nil
	for attempt := 1; attempt <= 2; attempt++ {
		if got := dead.next(t); len(got) != 3 {
			t.Fatalf("attempt %d carried %+v, want three entries", attempt, got)
		}
		dead.release <- http.StatusInternalServerError
	}
	moved := live.next(t)
	live.release <- nil
	n.Close()
	dead.idle(t)

	if len(moved) != 3 || moved[0].SubscriptionID != "sub-1" || moved[2].SubscriptionID != "sub-3" {
		t.Errorf("rerouted envelope = %+v, want sub-1..sub-3 in one POST", moved)
	}
	if s := n.Stats(); resolves != 1 || s.Rerouted.Load() != 3 || s.Delivered.Load() != 4 || s.Lost.Load() != 0 {
		t.Errorf("resolves %d rerouted %d delivered %d lost %d, want 1/3/4/0",
			resolves, s.Rerouted.Load(), s.Delivered.Load(), s.Lost.Load())
	}
}

// TestWebhookDeadCallbacksDoNotBlockHealthy: a retry holds no worker. With
// as many dead callbacks as workers, each sitting out a long backoff, a
// healthy callback is still served at once.
func TestWebhookDeadCallbacksDoNotBlockHealthy(t *testing.T) {
	const workers = 4
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		httpx.WriteError(w, http.StatusInternalServerError, "dead forever")
	}))
	defer dead.Close()
	healthy := newGatedCallback(t)

	n := bdms.NewWebhookNotifier(workers, 64, dead.Client(), bdms.WithNotifierBackoff(time.Minute, time.Minute))
	for i := 0; i < workers+1; i++ {
		n.NotifyContext(context.Background(), "sub-1", fmt.Sprintf("%s/cb/%d", dead.URL, i), time.Second)
	}
	waitFor(t, "every dead callback to fail once", func() bool { return n.Stats().Failed.Load() == workers+1 })
	start := time.Now()
	n.NotifyContext(context.Background(), "sub-1", healthy.URL, time.Second)
	healthy.next(t)
	healthy.release <- nil
	waitFor(t, "the healthy delivery", func() bool { return n.Stats().Delivered.Load() == 1 })
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("healthy callback waited %v behind dead ones", d)
	}
	n.Close() // cuts the minute-long backoffs short; their notifications are lost
	if s := n.Stats(); s.Lost.Load() != workers+1 || s.Redelivered.Load() != 0 {
		t.Errorf("lost %d redelivered %d, want %d/0", s.Lost.Load(), s.Redelivered.Load(), workers+1)
	}
}

// TestWebhookOutboxByteBudget: an envelope carries a bounded number of
// result bytes. Past the budget a PUSH entry leaves handle-only — the
// broker pulls — whether it outgrew the budget alone or as the envelope's
// last straw, and each shed entry is counted.
func TestWebhookOutboxByteBudget(t *testing.T) {
	big := func(sub, id string, ts time.Duration) bdms.ResultObject {
		return bdms.ResultObject{ID: id, SubscriptionID: sub, Timestamp: ts, Size: httpx.MaxBodyBytes / 8}
	}
	g := newGatedCallback(t)
	n := bdms.NewWebhookNotifier(1, 16, g.Client())
	g.hold(t, n)
	ctx := context.Background()
	// sub-1 fits (2/8 of the body limit); sub-2 would be the third eighth,
	// past the quarter budget; sub-3 outgrows it alone.
	n.NotifyPushContext(ctx, "sub-1", g.URL, big("sub-1", "a1", 1*time.Second))
	n.NotifyPushContext(ctx, "sub-1", g.URL, big("sub-1", "a2", 2*time.Second))
	n.NotifyPushContext(ctx, "sub-2", g.URL, big("sub-2", "b1", 3*time.Second))
	for i := 1; i <= 3; i++ {
		n.NotifyPushContext(ctx, "sub-3", g.URL, big("sub-3", fmt.Sprintf("c%d", i), time.Duration(3+i)*time.Second))
	}
	g.release <- nil
	got := g.next(t)
	g.release <- nil
	n.Close()

	if len(got) != 3 || len(got[0].Results) != 2 {
		t.Fatalf("envelope = %+v, want sub-1 with both results", got)
	}
	for _, e := range got[1:] {
		if len(e.Results) != 0 {
			t.Errorf("%s left with %d results, want handle-only", e.SubscriptionID, len(e.Results))
		}
	}
	if got[1].LatestNS != int64(3*time.Second) || got[2].LatestNS != int64(6*time.Second) {
		t.Errorf("handles = %d, %d; want the newest timestamps 3s and 6s", got[1].LatestNS, got[2].LatestNS)
	}
	if s := n.Stats(); s.Degraded.Load() != 2 || s.Delivered.Load() != 7 {
		t.Errorf("degraded %d delivered %d, want 2/7", s.Degraded.Load(), s.Delivered.Load())
	}
}

// BenchmarkNotifierBurst is one evaluation commit's worth of notifications —
// 25 subscriptions of one broker — handed to the notifier back to back and
// awaited at the callback: ns/op and allocs/op cover the whole burst
// (loopback callback included), posts/op is the envelopes it left in.
func BenchmarkNotifierBurst(b *testing.B) {
	const burst = 25
	got := make(chan int, burst) // entries per POST; a burst is at most burst POSTs
	cb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p bdms.NotificationPayload
		if err := httpx.ReadJSON(r, &p); err != nil {
			b.Error(err)
		}
		httpx.WriteJSON(w, http.StatusOK, bdms.CallbackResponse{})
		got <- 1 + len(p.More)
	}))
	defer cb.Close()
	n := bdms.NewWebhookNotifier(4, 1024, cb.Client())
	subs := make([]string, burst)
	for i := range subs {
		subs[i] = fmt.Sprintf("sub-%02d", i)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		for _, sub := range subs {
			n.NotifyContext(ctx, sub, cb.URL, time.Duration(i))
		}
		for entries := 0; entries < burst; {
			entries += <-got
		}
	}
	b.StopTimer()
	n.Close()
	b.ReportMetric(float64(n.Stats().Posts.Load())/float64(b.N), "posts/op")
}
