package bcs

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/httpx"
)

// TestAssignNeverReturnsStaleBroker is the liveness property: across a
// randomized schedule of registrations, heartbeats, deregistrations and
// clock advances, Place("") must never hand out a broker whose heartbeat age
// has reached the liveness bound — including the exact instant a broker
// goes stale — and must fail only when no live broker exists.
func TestAssignNeverReturnsStaleBroker(t *testing.T) {
	const liveness = 10 * time.Second
	rng := rand.New(rand.NewSource(42))
	var now time.Duration
	svc := NewService(
		WithLiveness(liveness),
		WithClock(func() time.Duration { return now }),
	)

	ids := make([]string, 6)
	for i := range ids {
		ids[i] = fmt.Sprintf("b%d", i)
		if err := svc.Register(ids[i], "http://"+ids[i]); err != nil {
			t.Fatal(err)
		}
	}

	// heartbeats mirrors the service's view so the test can compute the
	// expected live set independently.
	heartbeats := map[string]time.Duration{}
	registered := map[string]bool{}
	for _, id := range ids {
		heartbeats[id] = now
		registered[id] = true
	}

	for step := 0; step < 5000; step++ {
		id := ids[rng.Intn(len(ids))]
		switch op := rng.Intn(10); {
		case op < 5: // heartbeat
			if registered[id] {
				if err := svc.Heartbeat(id, rng.Intn(100), false); err != nil {
					t.Fatal(err)
				}
				heartbeats[id] = now
			}
		case op < 7: // advance the clock; sometimes land exactly on a
			// staleness boundary so the "instant it goes stale" case is hit.
			if op == 5 && registered[id] {
				now = heartbeats[id] + liveness
			} else {
				now += time.Duration(rng.Int63n(int64(liveness)))
			}
		case op < 8: // deregister
			if registered[id] {
				if err := svc.Deregister(id); err != nil {
					t.Fatal(err)
				}
				registered[id] = false
			}
		default: // (re)register
			if err := svc.Register(id, "http://"+id); err != nil {
				t.Fatal(err)
			}
			registered[id] = true
			heartbeats[id] = now
		}

		anyLive := false
		for _, other := range ids {
			if registered[other] && now-heartbeats[other] < liveness {
				anyLive = true
			}
		}
		got, _, err := svc.Place("")
		if err != nil {
			if anyLive {
				t.Fatalf("step %d: Assign failed with a live broker available: %v", step, err)
			}
			continue
		}
		if !registered[got.ID] {
			t.Fatalf("step %d: Assign returned deregistered broker %s", step, got.ID)
		}
		if age := now - heartbeats[got.ID]; age >= liveness {
			t.Fatalf("step %d: Assign returned %s with heartbeat age %v >= liveness %v",
				step, got.ID, age, liveness)
		}
		if !svc.Live(got.ID) {
			t.Fatalf("step %d: Assign returned %s but Live reports it dead", step, got.ID)
		}
	}
}

// TestServerAssignSkipsStaleBroker drives the staleness behavior through
// the HTTP surface: a broker that stops heartbeating disappears from
// /v1/placement, and when every broker is stale the endpoint degrades to a
// retryable 503.
func TestServerAssignSkipsStaleBroker(t *testing.T) {
	var now time.Duration
	svc := NewService(
		WithLiveness(5*time.Second),
		WithClock(func() time.Duration { return now }),
	)
	srv := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, nil)

	if err := c.Register("b1", "http://b1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("b2", "http://b2"); err != nil {
		t.Fatal(err)
	}
	// b1 is less loaded, so it wins while live.
	if _, _, err := c.Heartbeat("b1", HeartbeatRequest{Load: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Heartbeat("b2", HeartbeatRequest{Load: 5}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Place("", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Broker.ID != "b1" {
		t.Fatalf("assigned %s, want b1 (least loaded)", got.Broker.ID)
	}

	// b1's heartbeat ages past the bound; only b2 keeps heartbeating.
	now += 4 * time.Second
	if _, _, err := c.Heartbeat("b2", HeartbeatRequest{Load: 5}); err != nil {
		t.Fatal(err)
	}
	now += time.Second // b1's age is now exactly the bound
	got, err = c.Place("", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Broker.ID != "b2" {
		t.Fatalf("assigned %s, want b2 (b1 heartbeat is stale)", got.Broker.ID)
	}

	// Everything stale: the endpoint answers 503 and marks it retryable so
	// client supervisors keep polling through a BCS restart window.
	now += 5 * time.Second
	_, err = c.Place("", "")
	var se *httpx.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("assign with no live broker: got %v, want StatusError", err)
	}
	if se.Status != 503 || !se.Retryable {
		t.Fatalf("assign error = HTTP %d retryable=%v, want 503 retryable", se.Status, se.Retryable)
	}
}
