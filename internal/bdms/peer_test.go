package bdms_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"gobad/internal/bdms"
	"gobad/internal/httpx"
	"gobad/internal/obs"
)

// peerTarget is a sibling broker that answers every peer lookup with one
// status and error code, counting the lookups that reach it.
func peerTarget(t *testing.T, status int, code string) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		httpx.WriteErrorCode(w, status, code, "answer %d", status)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// breakerState reads bad_breaker_state for target from the peer client's
// collector (0 closed, 2 open); -1 when the target has no breaker yet.
func breakerState(t *testing.T, pc *bdms.PeerClient, target string) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	reg.MustRegister(pc.Collector())
	for _, f := range reg.Gather() {
		if f.Name != "bad_breaker_state" {
			continue
		}
		for _, p := range f.Points {
			if len(p.Labels) == 1 && p.Labels[0].Value == target {
				return p.Value
			}
		}
	}
	return -1
}

// A peer_cold answer is a healthy "I don't have it": however many arrive,
// the target's circuit stays closed and every lookup reaches the peer.
func TestPeerColdNeverOpensBreaker(t *testing.T) {
	srv, hits := peerTarget(t, http.StatusNotFound, bdms.CodePeerCold)
	pc := bdms.NewPeerClient(nil)
	const lookups = 20 // four times the failure threshold
	for i := 0; i < lookups; i++ {
		_, err := pc.Results(context.Background(), srv.URL, "fk1", 0, 1, true)
		if !bdms.IsPeerCold(err) {
			t.Fatalf("lookup %d: %v, want peer_cold", i, err)
		}
	}
	if got := hits.Load(); got != lookups {
		t.Errorf("peer saw %d lookups, want %d", got, lookups)
	}
	if st := breakerState(t, pc, srv.URL); st != 0 {
		t.Errorf("bad_breaker_state = %v after cold answers, want 0 (closed)", st)
	}
}

// The failure threshold's worth of 5xx answers or transport errors opens
// the target's circuit: the next lookup fails fast with ErrBreakerOpen and
// never reaches the peer, while other targets are untouched.
func TestPeerFailuresOpenBreaker(t *testing.T) {
	const threshold = 5 // httpx.BreakerConfig's default
	failing, hits := peerTarget(t, http.StatusInternalServerError, "internal")
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	healthy, healthyHits := peerTarget(t, http.StatusNotFound, bdms.CodePeerCold)

	for _, tc := range []struct {
		name string
		url  string
		hits *atomic.Int64 // nil: nothing listens
	}{{"5xx", failing.URL, hits}, {"transport", dead.URL, nil}} {
		t.Run(tc.name, func(t *testing.T) {
			pc := bdms.NewPeerClient(nil)
			for i := 0; i < threshold; i++ {
				_, err := pc.Results(context.Background(), tc.url, "fk1", 0, 1, true)
				if err == nil || errors.Is(err, httpx.ErrBreakerOpen) {
					t.Fatalf("lookup %d: %v, want the peer's failure", i, err)
				}
			}
			_, err := pc.Results(context.Background(), tc.url, "fk1", 0, 1, true)
			if !errors.Is(err, httpx.ErrBreakerOpen) {
				t.Fatalf("lookup past the threshold: %v, want ErrBreakerOpen", err)
			}
			if tc.hits != nil && tc.hits.Load() != threshold {
				t.Errorf("peer saw %d lookups, want %d: a lookup against an open circuit reached it", tc.hits.Load(), threshold)
			}
			if st := breakerState(t, pc, tc.url); st != 2 {
				t.Errorf("bad_breaker_state = %v, want 2 (open)", st)
			}
			// Breakers are per target: another sibling is still asked.
			if _, err := pc.Results(context.Background(), healthy.URL, "fk1", 0, 1, true); !bdms.IsPeerCold(err) {
				t.Errorf("healthy peer: %v, want peer_cold", err)
			}
		})
	}
	if got := healthyHits.Load(); got != 2 {
		t.Errorf("healthy peer saw %d lookups, want 2", got)
	}
}
