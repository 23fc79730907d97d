package broker

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/core"
)

// swappableHandler lets a test replace the handler behind a stable URL —
// the moral equivalent of restarting the service on the same address.
type swappableHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swappableHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// TestRegistrationSurvivesBCSRestart is the failover regression for the
// heartbeat loop: when the BCS restarts and loses its registry, heartbeats
// start answering 404 — the loop must re-register the broker so Assign
// serves it again with no operator intervention.
func TestRegistrationSurvivesBCSRestart(t *testing.T) {
	env := newTestEnv(t, core.LSC{}, 1<<20)

	svc1 := bcs.NewService()
	sw := &swappableHandler{h: bcs.NewServer(svc1).Handler()}
	srv := httptest.NewServer(sw)
	t.Cleanup(srv.Close)

	reg, err := RegisterWithBCS(env.broker, bcs.NewClient(srv.URL, nil), "http://broker-1", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	if _, _, err := svc1.Place(""); err != nil {
		t.Fatalf("Assign before restart: %v", err)
	}

	// "Restart" the BCS: fresh empty service on the same URL.
	svc2 := bcs.NewService()
	sw.swap(bcs.NewServer(svc2).Handler())

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, _, err := svc2.Place(""); err == nil {
			if got.ID != env.broker.ID() || got.Address != "http://broker-1" {
				t.Fatalf("re-registered as %+v, want id=%s address=http://broker-1", got, env.broker.ID())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("broker never re-registered with the restarted BCS")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
