package bdms_test

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/faults"
	"gobad/internal/httpx"
	"gobad/internal/obs"
)

// noSleep is a virtual sleeper: backoffs are recorded, never waited.
type noSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (v *noSleep) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	v.mu.Lock()
	v.delays = append(v.delays, d)
	v.mu.Unlock()
	return nil
}

// TestClientRetriesIdempotentThroughFaults: a 5xx burst injected at the
// transport is absorbed by the client's retryer on an idempotent GET.
func TestClientRetriesIdempotentThroughFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, bdms.LatestResponse{LatestNS: 42})
	}))
	defer srv.Close()

	in := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Kind: faults.KindStatus, Status: 503, FromCall: 1, ToCall: 2},
	}})
	vs := &noSleep{}
	stats := &httpx.RetryStats{}
	client := bdms.NewClient(srv.URL,
		&http.Client{Transport: &faults.RoundTripper{Injector: in}},
		bdms.WithClientRetryer(&httpx.Retryer{
			MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second,
			Rand: func() float64 { return 1 }, Sleep: vs.sleep, Stats: stats,
		}))

	latest, err := client.LatestTimestamp("sub1")
	if err != nil {
		t.Fatalf("retries should absorb the burst: %v", err)
	}
	if latest != 42 {
		t.Errorf("latest = %v, want 42ns", latest)
	}
	if got := stats.Attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (2 faulted + 1 success)", got)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if len(vs.delays) != 2 || vs.delays[0] != want[0] || vs.delays[1] != want[1] {
		t.Errorf("backoffs = %v, want %v", vs.delays, want)
	}
}

// TestClientDoesNotRetryNonIdempotentTransportError: a partitioned POST
// must not be blindly repeated — the mutation may have been applied.
func TestClientDoesNotRetryNonIdempotentTransportError(t *testing.T) {
	in := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Kind: faults.KindPartition},
	}})
	vs := &noSleep{}
	client := bdms.NewClient("http://203.0.113.9:1",
		&http.Client{Transport: &faults.RoundTripper{Injector: in}},
		bdms.WithClientRetryer(&httpx.Retryer{
			MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
			Rand: func() float64 { return 1 }, Sleep: vs.sleep,
		}))

	_, err := client.Subscribe("ch", nil, "http://cb")
	if err == nil {
		t.Fatal("want error")
	}
	if got := in.Calls("203.0.113.9:1/v1/subscriptions"); got != 1 {
		t.Errorf("attempts = %d, want 1 (no blind POST retries)", got)
	}
	// The same fault on an idempotent GET is retried.
	_, err = client.LatestTimestamp("sub1")
	if err == nil {
		t.Fatal("want error")
	}
	if got := in.Calls("203.0.113.9:1/v1/subscriptions/sub1/latest"); got != 4 {
		t.Errorf("GET attempts = %d, want 4 (full retry budget)", got)
	}
}

// TestClientRetriesEnvelopeVouchedPOST: a 503 envelope carries
// retryable=true, so even the non-idempotent path repeats it.
func TestClientRetriesEnvelopeVouchedPOST(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls < 3 {
			httpx.WriteError(w, http.StatusServiceUnavailable, "warming up")
			return
		}
		httpx.WriteJSON(w, http.StatusOK, bdms.SubscribeResponse{SubscriptionID: "sub-9"})
	}))
	defer srv.Close()

	vs := &noSleep{}
	client := bdms.NewClient(srv.URL, srv.Client(),
		bdms.WithClientRetryer(&httpx.Retryer{
			MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
			Rand: func() float64 { return 1 }, Sleep: vs.sleep,
		}))
	sub, err := client.Subscribe("ch", nil, "http://cb")
	if err != nil {
		t.Fatalf("envelope-vouched POST should retry: %v", err)
	}
	if sub != "sub-9" || calls != 3 {
		t.Errorf("sub = %q after %d calls, want sub-9 after 3", sub, calls)
	}
}

// TestClientBreakerShedsAfterThreshold: consecutive failures trip the
// breaker; subsequent calls fail fast without reaching the wire.
func TestClientBreakerShedsAfterThreshold(t *testing.T) {
	in := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Kind: faults.KindError},
	}})
	clk := time.Duration(0)
	b := httpx.NewBreaker("cluster", httpx.BreakerConfig{
		FailureThreshold: 3, OpenTimeout: 10 * time.Second,
		Clock: func() time.Duration { return clk },
	})
	client := bdms.NewClient("http://203.0.113.9:1",
		&http.Client{Transport: &faults.RoundTripper{Injector: in}},
		bdms.WithClientBreaker(b))

	for i := 0; i < 3; i++ {
		if _, err := client.LatestTimestamp("sub1"); err == nil {
			t.Fatal("want error")
		}
	}
	if s := b.State(); s != httpx.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", s)
	}
	_, err := client.LatestTimestamp("sub1")
	if !errors.Is(err, httpx.ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if got := in.Calls("203.0.113.9:1/v1/subscriptions/sub1/latest"); got != 3 {
		t.Errorf("wire calls = %d, want 3 (open breaker sheds)", got)
	}
}

// TestWebhookRedelivery: failed deliveries are retried with backoff until
// they land — the at-least-once contract — and the WARN log carries a
// trace ID.
func TestWebhookRedelivery(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	cb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		n := hits
		mu.Unlock()
		if n <= 2 {
			httpx.WriteError(w, http.StatusBadGateway, "broker restarting")
			return
		}
		httpx.WriteJSON(w, http.StatusOK, bdms.CallbackResponse{})
	}))
	defer cb.Close()

	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	vs := &noSleep{}
	n := bdms.NewWebhookNotifier(1, 16, cb.Client(),
		bdms.WithNotifierSleep(vs.sleep),
		bdms.WithNotifierLogger(logger),
		bdms.WithNotifierBackoff(50*time.Millisecond, time.Second))
	n.NotifyContext(context.Background(), "sub-1", cb.URL, 7*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	n.Close()

	s := n.Stats()
	if s.Delivered.Load() != 1 || s.Failed.Load() != 2 || s.Redelivered.Load() != 2 || s.Lost.Load() != 0 {
		t.Errorf("stats = delivered %d failed %d redelivered %d lost %d, want 1/2/2/0",
			s.Delivered.Load(), s.Failed.Load(), s.Redelivered.Load(), s.Lost.Load())
	}
	vs.mu.Lock()
	wantBackoffs := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(vs.delays) != 2 || vs.delays[0] != wantBackoffs[0] || vs.delays[1] != wantBackoffs[1] {
		t.Errorf("backoffs = %v, want %v", vs.delays, wantBackoffs)
	}
	vs.mu.Unlock()
	if !bytes.Contains(logBuf.Bytes(), []byte("webhook delivery failed")) {
		t.Error("failed delivery must be logged at WARN")
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("trace_id")) {
		t.Error("WARN log must carry the delivery's trace ID")
	}
}

// TestWebhookAttemptBudgetExhausted: a permanently dead callback is
// abandoned after max attempts and counted lost, not retried forever.
func TestWebhookAttemptBudgetExhausted(t *testing.T) {
	cb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteError(w, http.StatusInternalServerError, "dead forever")
	}))
	defer cb.Close()

	vs := &noSleep{}
	n := bdms.NewWebhookNotifier(1, 16, cb.Client(),
		bdms.WithNotifierSleep(vs.sleep),
		bdms.WithNotifierMaxAttempts(3))
	n.NotifyContext(context.Background(), "sub-1", cb.URL, time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Lost.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	n.Close()

	s := n.Stats()
	if s.Lost.Load() != 1 || s.Failed.Load() != 3 || s.Delivered.Load() != 0 {
		t.Errorf("stats = lost %d failed %d delivered %d, want 1/3/0",
			s.Lost.Load(), s.Failed.Load(), s.Delivered.Load())
	}
}

// TestNotifierStatsCollector: the delivery tallies export as counters.
func TestNotifierStatsCollector(t *testing.T) {
	s := &bdms.NotifierStats{}
	s.Delivered.Add(4)
	s.Lost.Add(1)
	got := map[string]float64{}
	s.Collector().Collect(func(f obs.Family) { got[f.Name] = f.Points[0].Value })
	if got["bad_webhook_delivered_total"] != 4 || got["bad_webhook_lost_total"] != 1 {
		t.Errorf("collected = %v", got)
	}
}

// TestClientFaultScenarios is the table-driven chaos matrix: each case is
// one fault plan against the same idempotent call, asserting the exact
// attempt count, the exact backoff schedule (virtual clock, no wall
// sleeps) and the breaker's final state.
func TestClientFaultScenarios(t *testing.T) {
	cases := []struct {
		name         string
		rules        []faults.Rule
		wantErr      bool
		wantAttempts uint64
		wantBackoffs []time.Duration
		wantFaultDly []time.Duration // latency injected inside faulted calls
		wantWire     int             // calls that reached the transport (0 = attempts)
		wantBreaker  httpx.BreakerState
	}{
		{
			name:         "5xx burst then recover",
			rules:        []faults.Rule{{Kind: faults.KindStatus, Status: 503, FromCall: 1, ToCall: 2}},
			wantAttempts: 3,
			wantBackoffs: []time.Duration{100 * time.Millisecond, 200 * time.Millisecond},
			wantBreaker:  httpx.BreakerClosed,
		},
		{
			name:         "timeout then recover",
			rules:        []faults.Rule{{Kind: faults.KindTimeout, FromCall: 1, ToCall: 2}},
			wantAttempts: 3,
			wantBackoffs: []time.Duration{100 * time.Millisecond, 200 * time.Millisecond},
			wantBreaker:  httpx.BreakerClosed,
		},
		{
			name:         "partition never heals",
			rules:        []faults.Rule{{Kind: faults.KindPartition}},
			wantErr:      true,
			wantAttempts: 4, // the retry budget runs out...
			wantWire:     3, // ...but the tripped breaker shed the last attempt off the wire
			wantBackoffs: []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond},
			wantBreaker:  httpx.BreakerOpen,
		},
		{
			name:         "slow then recover",
			rules:        []faults.Rule{{Kind: faults.KindLatency, Latency: 400 * time.Millisecond, FromCall: 1, ToCall: 2}},
			wantAttempts: 1, // slow is not broken: the call completes, nothing retries
			wantFaultDly: []time.Duration{400 * time.Millisecond},
			wantBreaker:  httpx.BreakerClosed,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				httpx.WriteJSON(w, http.StatusOK, bdms.LatestResponse{LatestNS: 42})
			}))
			defer srv.Close()

			faultSleeps := &noSleep{}
			in := faults.NewInjector(faults.Plan{Rules: tc.rules},
				faults.WithSleep(faultSleeps.sleep))
			retrySleeps := &noSleep{}
			stats := &httpx.RetryStats{}
			breaker := httpx.NewBreaker("cluster", httpx.BreakerConfig{FailureThreshold: 3})
			client := bdms.NewClient(srv.URL,
				&http.Client{Transport: &faults.RoundTripper{Injector: in}},
				bdms.WithClientRetryer(&httpx.Retryer{
					MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second,
					Rand: func() float64 { return 1 }, Sleep: retrySleeps.sleep, Stats: stats,
				}),
				bdms.WithClientBreaker(breaker))

			latest, err := client.LatestTimestamp("sub1")
			if tc.wantErr != (err != nil) {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if !tc.wantErr && latest != 42 {
				t.Errorf("latest = %v, want 42ns", latest)
			}
			if got := stats.Attempts.Load(); got != tc.wantAttempts {
				t.Errorf("attempts = %d, want %d", got, tc.wantAttempts)
			}
			wantWire := int(tc.wantAttempts)
			if tc.wantWire > 0 {
				wantWire = tc.wantWire
			}
			target := strings.TrimPrefix(srv.URL, "http://") + "/v1/subscriptions/sub1/latest"
			if got := in.Calls(target); got != wantWire {
				t.Errorf("wire calls = %d, want %d", got, wantWire)
			}
			retrySleeps.mu.Lock()
			if len(retrySleeps.delays) != len(tc.wantBackoffs) {
				t.Errorf("backoffs = %v, want %v", retrySleeps.delays, tc.wantBackoffs)
			} else {
				for i, want := range tc.wantBackoffs {
					if retrySleeps.delays[i] != want {
						t.Errorf("backoff[%d] = %v, want %v", i, retrySleeps.delays[i], want)
					}
				}
			}
			retrySleeps.mu.Unlock()
			faultSleeps.mu.Lock()
			if len(faultSleeps.delays) != len(tc.wantFaultDly) {
				t.Errorf("injected latencies = %v, want %v", faultSleeps.delays, tc.wantFaultDly)
			}
			faultSleeps.mu.Unlock()
			if got := breaker.State(); got != tc.wantBreaker {
				t.Errorf("breaker state = %v, want %v", got, tc.wantBreaker)
			}
		})
	}
}
