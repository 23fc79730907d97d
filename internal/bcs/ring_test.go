package bcs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func ringOf(ids ...string) RingView {
	v := RingView{Epoch: 1}
	for _, id := range ids {
		v.Brokers = append(v.Brokers, BrokerInfo{ID: id, Address: "http://" + id})
	}
	return v
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("subscriber-%04d", i)
	}
	return out
}

// Determinism: every observer of the same view computes the same owner, and
// the answer does not depend on the order brokers appear in the view.
func TestHRWDeterministic(t *testing.T) {
	v := ringOf("b1", "b2", "b3")
	shuffled := ringOf("b3", "b1", "b2")
	shuffled.Epoch = v.Epoch
	for _, k := range keys(500) {
		got := v.OwnerID(k)
		if got == "" {
			t.Fatalf("no owner for %q", k)
		}
		if again := v.OwnerID(k); again != got {
			t.Fatalf("owner of %q flapped: %s then %s", k, got, again)
		}
		if other := shuffled.OwnerID(k); other != got {
			t.Fatalf("owner of %q depends on broker order: %s vs %s", k, got, other)
		}
	}
}

// Balance: with good score mixing, n brokers each own roughly K/n keys —
// even for near-identical keys that differ only in a trailing counter,
// which is exactly what subscriber IDs look like in practice.
func TestHRWBalance(t *testing.T) {
	const n, K = 4, 2000
	v := ringOf("b1", "b2", "b3", "b4")
	counts := map[string]int{}
	for _, k := range keys(K) {
		counts[v.OwnerID(k)]++
	}
	for id, c := range counts {
		// Allow a generous ±50% band around the ideal K/n share; the
		// pre-finalizer FNV scores put 100% of these keys on one broker.
		if c < K/n/2 || c > K/n*3/2 {
			t.Errorf("broker %s owns %d of %d keys, want ~%d", id, c, K, K/n)
		}
	}
}

// Seed independence: distinct seeds shuffle the placement.
func TestHRWSeedShuffles(t *testing.T) {
	a := ringOf("b1", "b2", "b3")
	b := ringOf("b1", "b2", "b3")
	b.Seed = 12345
	moved := 0
	ks := keys(1000)
	for _, k := range ks {
		if a.OwnerID(k) != b.OwnerID(k) {
			moved++
		}
	}
	// With 3 brokers, ~2/3 of keys should move under an independent seed.
	if moved < len(ks)/3 {
		t.Errorf("only %d of %d keys moved under a new seed", moved, len(ks))
	}
}

// Minimal disruption, join direction: adding a broker moves only the keys
// the newcomer now wins — about K/(n+1) — and every moved key moves TO the
// newcomer, never between survivors.
func TestHRWMinimalDisruptionOnJoin(t *testing.T) {
	const K = 2000
	before := ringOf("b1", "b2", "b3")
	after := ringOf("b1", "b2", "b3", "b4")
	moved := 0
	for _, k := range keys(K) {
		ob, oa := before.OwnerID(k), after.OwnerID(k)
		if ob == oa {
			continue
		}
		moved++
		if oa != "b4" {
			t.Fatalf("key %q moved %s -> %s on join; joins may only move keys to the newcomer", k, ob, oa)
		}
	}
	// Ideal share is K/4 = 500; require the disruption bound with slack.
	if moved > K/4*3/2 {
		t.Errorf("join moved %d of %d keys, want <= ~%d (K/(n+1))", moved, K, K/4)
	}
	if moved == 0 {
		t.Error("join moved no keys; newcomer owns nothing")
	}
}

// Minimal disruption, leave direction: removing a broker reassigns exactly
// the departed broker's keys; survivors keep every key they owned.
func TestHRWMinimalDisruptionOnLeave(t *testing.T) {
	before := ringOf("b1", "b2", "b3", "b4")
	after := ringOf("b1", "b2", "b3")
	for _, k := range keys(2000) {
		ob, oa := before.OwnerID(k), after.OwnerID(k)
		if ob == "b4" {
			if oa == "b4" || oa == "" {
				t.Fatalf("key %q still owned by departed broker", k)
			}
			continue
		}
		if ob != oa {
			t.Fatalf("key %q moved %s -> %s although its owner survived", k, ob, oa)
		}
	}
}

func TestRingViewEmpty(t *testing.T) {
	var v RingView
	if _, ok := v.Owner("x"); ok {
		t.Error("empty view must not produce an owner")
	}
	if v.OwnerID("x") != "" {
		t.Error("empty view OwnerID must be empty")
	}
	if v.Has("b1") {
		t.Error("empty view Has must be false")
	}
}

// Service-level placement: same key -> same broker across calls; epoch
// advances only when membership actually changes (including heartbeat
// expiry, which used to race Assign).
func TestServicePlacementAndEpoch(t *testing.T) {
	clk := &fakeClock{}
	s := NewService(WithClock(clk.Now), WithLiveness(time.Second))
	if _, _, err := s.Place("alice"); err == nil {
		t.Error("placement with no brokers should fail")
	}
	mustRegister := func(id string) {
		t.Helper()
		if err := s.Register(id, "http://"+id); err != nil {
			t.Fatal(err)
		}
	}
	mustRegister("b1")
	mustRegister("b2")

	b, epoch1, err := s.Place("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, epoch, err := s.Place("alice")
		if err != nil {
			t.Fatal(err)
		}
		if again.ID != b.ID || epoch != epoch1 {
			t.Fatalf("placement flapped: %s@%d then %s@%d", b.ID, epoch1, again.ID, epoch)
		}
	}

	// Membership change: epoch must advance.
	mustRegister("b3")
	if _, epoch2, _ := s.Place("alice"); epoch2 <= epoch1 {
		t.Fatalf("epoch %d after join, want > %d", epoch2, epoch1)
	}

	// Heartbeat expiry is a membership change too — the ring snapshot
	// fingerprints the live set, so an expired broker bumps the epoch
	// without any register/deregister call.
	ringBefore := s.Ring()
	clk.Advance(2 * time.Second)
	if err := s.Heartbeat("b1", 0, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Heartbeat("b2", 0, false); err != nil {
		t.Fatal(err)
	}
	// b3 never heartbeat after the advance: it is now stale.
	ringAfter := s.Ring()
	if ringAfter.Epoch <= ringBefore.Epoch {
		t.Fatalf("epoch %d after expiry, want > %d", ringAfter.Epoch, ringBefore.Epoch)
	}
	if ringAfter.Has("b3") {
		t.Error("expired broker still in ring")
	}
	for _, brk := range ringAfter.Brokers {
		if got, _, err := s.Place(brk.ID + "-key"); err != nil || !ringAfter.Has(got.ID) {
			t.Fatalf("placement %v/%v outside live ring", got.ID, err)
		}
	}
}

// Empty subscriber key falls back to least-loaded assignment (the
// /v1/placement contract for anonymous callers like the webhook reroute).
func TestServicePlaceEmptyKeyLeastLoaded(t *testing.T) {
	s := NewService()
	for _, id := range []string{"b1", "b2"} {
		if err := s.Register(id, "http://"+id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Heartbeat("b1", 50, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Heartbeat("b2", 3, false); err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Place("")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != "b2" {
		t.Errorf("empty-key placement %s, want least-loaded b2", b.ID)
	}
}

// The /v1 fabric API over HTTP: placement with the moved flag, the ring
// with ETag/304 revalidation, and the deprecated assign alias.
func TestFabricAPI(t *testing.T) {
	s := NewService()
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()
	for _, id := range []string{"b1", "b2"} {
		if err := s.Register(id, "http://"+id); err != nil {
			t.Fatal(err)
		}
	}
	c := NewClient(srv.URL, nil)

	placed, err := c.Place("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	if placed.Broker.ID == "" || placed.Epoch == 0 {
		t.Fatalf("placement = %+v", placed)
	}
	if placed.Moved {
		t.Error("fresh arrival (no prev broker) must not report moved")
	}
	same, err := c.Place("alice", placed.Broker.ID)
	if err != nil {
		t.Fatal(err)
	}
	if same.Moved || same.Broker.ID != placed.Broker.ID {
		t.Fatalf("stable placement reported moved: %+v", same)
	}
	other := "b1"
	if placed.Broker.ID == "b1" {
		other = "b2"
	}
	movedResp, err := c.Place("alice", other)
	if err != nil {
		t.Fatal(err)
	}
	if !movedResp.Moved {
		t.Error("placement away from prev_broker must report moved")
	}

	// Ring + conditional revalidation.
	resp, err := http.Get(srv.URL + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ring ETag = %q, want a strong quoted tag", etag)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/ring", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("unchanged ring revalidation = %d, want 304", resp2.StatusCode)
	}
	// Membership change invalidates the tag.
	if err := s.Register("b3", "http://b3"); err != nil {
		t.Fatal(err)
	}
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("changed ring revalidation = %d, want 200", resp3.StatusCode)
	}
}
