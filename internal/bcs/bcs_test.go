package bcs

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestRegisterAndAssign(t *testing.T) {
	clk := &fakeClock{}
	s := NewService(WithClock(clk.Now))
	if _, _, err := s.Place(""); err == nil {
		t.Error("assign with no brokers should fail")
	}
	if err := s.Register("b1", "http://b1:8080"); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b2", "http://b2:8080"); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("", "x"); err == nil {
		t.Error("empty id should fail")
	}

	// Equal load: deterministic pick by ID.
	b, _, err := s.Place("")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != "b1" {
		t.Errorf("assigned %s, want b1", b.ID)
	}
	// b1 reports higher load: b2 wins.
	if err := s.Heartbeat("b1", 100, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Heartbeat("b2", 5, false); err != nil {
		t.Fatal(err)
	}
	b, _, err = s.Place("")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != "b2" {
		t.Errorf("assigned %s, want least-loaded b2", b.ID)
	}
}

func TestAssignSkipsDeadBrokers(t *testing.T) {
	clk := &fakeClock{}
	s := NewService(WithClock(clk.Now), WithLiveness(10*time.Second))
	if err := s.Register("b1", "http://b1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b2", "http://b2"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if err := s.Heartbeat("b2", 50, false); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second) // b1's heartbeat now 13s old, b2's 8s old
	b, _, err := s.Place("")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != "b2" {
		t.Errorf("assigned %s, want live b2", b.ID)
	}
	clk.Advance(20 * time.Second) // both dead
	if _, _, err := s.Place(""); err == nil {
		t.Error("all-dead assign should fail")
	}
}

func TestHeartbeatUnknown(t *testing.T) {
	s := NewService()
	if err := s.Heartbeat("nope", 0, false); err == nil {
		t.Error("unknown broker heartbeat should fail")
	}
}

func TestDeregister(t *testing.T) {
	s := NewService()
	if err := s.Register("b1", "http://b1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Deregister("b1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Deregister("b1"); err == nil {
		t.Error("double deregister should fail")
	}
	if got := s.Brokers(); len(got) != 0 {
		t.Errorf("brokers = %v", got)
	}
}

func TestBrokersSorted(t *testing.T) {
	s := NewService()
	for _, id := range []string{"c", "a", "b"} {
		if err := s.Register(id, "http://"+id); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Brokers()
	if len(got) != 3 || got[0].ID != "a" || got[2].ID != "c" {
		t.Errorf("brokers = %v", got)
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	svc := NewService()
	srv := httptest.NewServer(NewServer(svc).Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())

	if err := client.Register("b1", "http://b1:9000"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Heartbeat("b1", HeartbeatRequest{Load: 7}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Heartbeat("ghost", HeartbeatRequest{Load: 1}); err == nil {
		t.Error("unknown broker heartbeat should fail over REST")
	}
	brokers, err := client.Brokers()
	if err != nil {
		t.Fatal(err)
	}
	if len(brokers) != 1 || brokers[0].Load != 7 {
		t.Errorf("brokers = %+v", brokers)
	}
	placed, err := client.Place("", "")
	if err != nil {
		t.Fatal(err)
	}
	if b := placed.Broker; b.ID != "b1" || b.Address != "http://b1:9000" {
		t.Errorf("placed = %+v", b)
	}
	if err := client.Deregister("b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Place("", ""); err == nil {
		t.Error("placement with no brokers should fail over REST")
	}
}

// TestHeartbeatCarriesRing: the heartbeat answer carries the ring view
// exactly when the epoch the broker reports is not the BCS's, so a broker
// that heartbeats stays in the fabric without asking for the ring, and a
// steady-state heartbeat carries no view.
func TestHeartbeatCarriesRing(t *testing.T) {
	svc := NewService()
	srv := httptest.NewServer(NewServer(svc).Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	if err := client.Register("b1", "http://b1"); err != nil {
		t.Fatal(err)
	}

	view, changed, err := client.Heartbeat("b1", HeartbeatRequest{})
	if err != nil || !changed {
		t.Fatalf("first heartbeat: changed=%v err=%v, want the ring", changed, err)
	}
	if view.Epoch == 0 || len(view.Brokers) != 1 || !view.Has("b1") {
		t.Fatalf("first heartbeat view = %+v", view)
	}
	if _, changed, err := client.Heartbeat("b1", HeartbeatRequest{Epoch: view.Epoch}); err != nil || changed {
		t.Fatalf("heartbeat at the current epoch: changed=%v err=%v, want no view", changed, err)
	}

	if err := client.Register("b2", "http://b2"); err != nil {
		t.Fatal(err)
	}
	joined, changed, err := client.Heartbeat("b1", HeartbeatRequest{Epoch: view.Epoch})
	if err != nil || !changed || joined.Epoch == view.Epoch || !joined.Has("b2") {
		t.Fatalf("heartbeat after a join: view=%+v changed=%v err=%v", joined, changed, err)
	}
}

// TestClientEscapesBrokerID: a broker id is a path segment in heartbeat and
// deregister, so an id with a slash or a query mark must still reach its
// own registration (unescaped, the heartbeat 404s or 405s and the broker
// silently ages out of placement).
func TestClientEscapesBrokerID(t *testing.T) {
	for _, id := range []string{"edge/1", "edge 1?x"} {
		svc := NewService()
		srv := httptest.NewServer(NewServer(svc).Handler())
		client := NewClient(srv.URL, srv.Client())
		if err := client.Register(id, "http://edge:9000"); err != nil {
			t.Fatalf("%q: register: %v", id, err)
		}
		if _, _, err := client.Heartbeat(id, HeartbeatRequest{Load: 3}); err != nil {
			t.Errorf("%q: heartbeat: %v", id, err)
		}
		if got := svc.Brokers(); !svc.Live(id) || len(got) != 1 || got[0].Load != 3 {
			t.Errorf("%q: live=%v, brokers after heartbeat = %+v", id, svc.Live(id), got)
		}
		if err := client.Deregister(id); err != nil {
			t.Errorf("%q: deregister: %v", id, err)
		}
		if svc.Live(id) {
			t.Errorf("%q: still live after deregister", id)
		}
		srv.Close()
	}
}
