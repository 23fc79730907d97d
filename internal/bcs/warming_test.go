package bcs

import (
	"fmt"
	"testing"
	"time"
)

// TestWarmingBrokerExcludedFromPlacement: a restarting broker heartbeats
// warming while it restores its cache snapshot; placement must route
// around it until it reports ready, and each readiness flip must bump the
// ring epoch so cached views notice the membership change.
func TestWarmingBrokerExcludedFromPlacement(t *testing.T) {
	var now time.Duration
	s := NewService(WithClock(func() time.Duration { return now }), WithLiveness(10*time.Second))
	for _, id := range []string{"a", "b", "c"} {
		if err := s.Register(id, "http://"+id); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Ring().Brokers); got != 3 {
		t.Fatalf("ring has %d brokers, want 3", got)
	}
	epochReady := s.Ring().Epoch

	if err := s.Heartbeat("b", 0, true); err != nil {
		t.Fatal(err)
	}
	view := s.Ring()
	if view.Epoch == epochReady {
		t.Error("ring epoch did not advance when a broker went warming")
	}
	if len(view.Brokers) != 2 {
		t.Fatalf("ring has %d brokers, want 2 while b warms", len(view.Brokers))
	}
	for i := 0; i < 64; i++ {
		owner, _, err := s.Place(fmt.Sprintf("sub-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if owner.ID == "b" {
			t.Fatalf("key sub-%d placed on warming broker b", i)
		}
	}
	if picked, _, err := s.Place(""); err != nil || picked.ID == "b" {
		t.Errorf("Assign = %v, %v; must skip the warming broker", picked.ID, err)
	}

	// Ready again: back in the ring, epoch bumped a second time.
	if err := s.Heartbeat("b", 0, false); err != nil {
		t.Fatal(err)
	}
	after := s.Ring()
	if after.Epoch == view.Epoch {
		t.Error("ring epoch did not advance when the broker became ready")
	}
	if len(after.Brokers) != 3 {
		t.Fatalf("ring has %d brokers, want 3 after warm-up", len(after.Brokers))
	}
	placedOnB := false
	for i := 0; i < 64 && !placedOnB; i++ {
		owner, _, err := s.Place(fmt.Sprintf("sub-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		placedOnB = owner.ID == "b"
	}
	if !placedOnB {
		t.Error("no key placed on b after it reported ready (HRW should hit it within 64 keys)")
	}

	// Everyone warming: nothing to hand out, callers get the same error an
	// empty ring gives.
	for _, id := range []string{"a", "b", "c"} {
		if err := s.Heartbeat(id, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Place("sub-0"); err == nil {
		t.Error("Place with every broker warming should fail")
	}
}

// TestHeartbeatKeepsWarmingLive: warming is a placement state, not a
// liveness state — a warming broker's heartbeats still count, so it does
// not get reaped while restoring.
func TestHeartbeatKeepsWarmingLive(t *testing.T) {
	var now time.Duration
	s := NewService(WithClock(func() time.Duration { return now }), WithLiveness(10*time.Second))
	if err := s.Register("a", "http://a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		now += 8 * time.Second
		if err := s.Heartbeat("a", 0, true); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Live("a") {
		t.Error("warming broker with fresh heartbeats must stay live")
	}
	if err := s.Heartbeat("a", 0, false); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Ring().Brokers); got != 1 {
		t.Errorf("ring has %d brokers, want 1 once ready", got)
	}
}
