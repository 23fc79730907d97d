package broker

import (
	"context"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/faults"
)

// TestChaosThirtyPercentClusterErrors is the broker-level acceptance
// scenario: a plan that fails 30% of cluster result pulls (seeded coin,
// virtual clock) runs under a cache small enough to evict, and the broker
// must (a) never surface an error to the subscriber — failed miss fetches
// degrade to stale serves — and (b) lose nothing: failed notification pulls
// leave the backend marker behind, so the cumulative next notification
// re-pulls the range, and stale retrievals return a zero marker, so the
// withheld range is re-requested after recovery. Every published result is
// delivered exactly because of those two mechanisms.
func TestChaosThirtyPercentClusterErrors(t *testing.T) {
	clk := &testClock{}
	in := faults.NewInjector(faults.Plan{
		Name: "cluster-30pct-errors",
		Seed: 11,
		Rules: []faults.Rule{{
			Target: "cluster.results", Kind: faults.KindError,
			Probability: 0.3, Until: 60 * time.Second,
		}},
	}, faults.WithClock(clk.Now))

	var b *Broker
	cluster := bdms.NewCluster(
		bdms.WithClock(clk.Now),
		bdms.WithNotifier(bdms.NotifierFunc(func(ctx context.Context, subID, _ string, latest time.Duration) {
			if b != nil {
				// A failed pull is not lost: the marker stays put and the
				// next (cumulative) notification retries the whole range.
				_ = b.HandleNotificationContext(ctx, subID, latest, nil)
			}
		})),
	)
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.DefineChannel(bdms.ChannelDef{
		Name: "Alerts", Params: []string{"etype"},
		Body: "select * from EmergencyReports r where r.etype = $etype",
	}); err != nil {
		t.Fatal(err)
	}
	var err error
	b, err = New(Config{
		ID:      "broker-1",
		Backend: faults.WrapBackend(in, "cluster", cluster),
		Policy:  core.LSC{},
		// Small enough that publish bursts evict unretrieved objects, so
		// retrievals have to re-fetch — the path stale-serve protects.
		CacheBudget: 100,
		Clock:       clk.Now,
		TTL:         core.TTLConfig{DefaultTTL: time.Hour},
		StaleServe:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsID, err := b.Subscribe("alice", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}

	delivered := map[string]bool{}
	published := 0
	staleRetrievals := 0
	publish := func(sev float64) {
		t.Helper()
		if _, err := cluster.Ingest("EmergencyReports", map[string]any{
			"etype": "fire", "severity": sev,
		}); err != nil {
			t.Fatal(err)
		}
		published++
	}
	var ack time.Duration // the last retrieval's Latest, carried by the next
	retrieve := func(label string) {
		t.Helper()
		ret, err := b.RetrieveContext(context.Background(), "alice", fsID, ack)
		if err != nil {
			t.Fatalf("%s: subscriber-visible error (stale-serve promises zero): %v", label, err)
		}
		for _, it := range ret.Items {
			delivered[it.ID] = true
		}
		ack = ret.Latest
		if ret.Stale {
			staleRetrievals++
			if ret.Latest != 0 {
				t.Fatalf("%s: stale retrieval carries marker %v, must be 0 so the missed range is retried", label, ret.Latest)
			}
		}
	}

	// 50 rounds inside the fault window: a 4-publish burst, then one
	// retrieval. Bursts overflow the budget, so retrievals miss on evicted
	// objects and those misses hit the 30% error coin.
	for i := 0; i < 50; i++ {
		for j := 0; j < 4; j++ {
			clk.Advance(250 * time.Millisecond)
			publish(float64(i))
		}
		retrieve("fault window")
	}
	// Past the fault window: publish to trigger fresh notifications until
	// every withheld range has been re-pulled and re-delivered.
	for i := 0; i < 40 && len(delivered) < published; i++ {
		clk.Advance(2 * time.Second)
		publish(0)
		retrieve("drain")
	}

	if len(delivered) != published {
		t.Errorf("delivered %d of %d published results — nothing may be lost", len(delivered), published)
	}
	if staleRetrievals == 0 {
		t.Error("the outage never produced a stale serve — scenario is not exercising degradation")
	}
	if got := b.Stats().StaleServed.Value(); got != float64(staleRetrievals) {
		t.Errorf("bad_cache_stale_serves_total = %v, want %d (one per stale retrieval)", got, staleRetrievals)
	}
	if got := b.Stats().FetchErrors.Value(); got != float64(staleRetrievals) {
		t.Errorf("bad_cache_fetch_errors_total = %v, want %d (every failed fetch degraded)", got, staleRetrievals)
	}

	// Golden counts for seed 11: the coin sequence is deterministic, so the
	// whole scenario is.
	total, perKind := in.Injected()
	if total != 72 || perKind[faults.KindError] != 72 {
		t.Errorf("injected = %d (%v), golden says 72 errors", total, perKind)
	}
	if staleRetrievals != 8 {
		t.Errorf("stale retrievals = %d, golden says 8", staleRetrievals)
	}
	if published != 201 {
		t.Errorf("published = %d, golden says 201 (200 + 1 drain round)", published)
	}
}
