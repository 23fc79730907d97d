package client

import (
	"errors"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// TestFailoverDeliveriesStartFreshTrace kills a session's broker and checks
// the trace hygiene of the resumed session: deliveries through the
// successor are rooted in their own publication's fresh trace — not a
// continuation of anything the dead broker started — and the successor's
// recorder holds no spans from the pre-kill trace.
func TestFailoverDeliveriesStartFreshTrace(t *testing.T) {
	env := newChaosEnv(t)
	c := env.client
	if _, err := c.Subscribe("Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	clusterClient := bdms.NewClient(env.clusterSrv.URL, nil)

	// First delivery, through broker-1: capture its trace identity.
	if _, err := clusterClient.Ingest("EmergencyReports", map[string]any{
		"etype": "fire", "severity": 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	var firstTrace string
	select {
	case n := <-c.Notifications():
		sc, ok := obs.ParseTraceparent(n.Traceparent)
		if !ok {
			t.Fatalf("pre-kill push frame traceparent %q unparseable", n.Traceparent)
		}
		firstTrace = sc.TraceIDString()
		// Retrieved, so the resume below has nothing to backfill and the
		// next frame is the second publication's.
		if _, err := c.GetResults(n.FrontendSub); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no notification through broker-1")
	}

	// broker-1 dies; the session resumes on broker-2.
	if err := env.svc.Deregister("broker-1"); err != nil {
		t.Fatal(err)
	}
	env.b1.kill()
	env.awaitConnected(t, env.b2.srv.URL)

	// Second delivery, through broker-2: a fresh trace root.
	if _, err := clusterClient.Ingest("EmergencyReports", map[string]any{
		"etype": "fire", "severity": 2.0,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-c.Notifications():
		sc, ok := obs.ParseTraceparent(n.Traceparent)
		if !ok {
			t.Fatalf("post-failover push frame traceparent %q unparseable", n.Traceparent)
		}
		if sc.TraceIDString() == firstTrace {
			t.Fatalf("post-failover delivery reused the dead broker's trace %s", firstTrace)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no notification through the failover broker")
	}

	// The dead broker's trace must not leak into the successor's recorder:
	// broker-2 saw nothing of the first publication (bob wasn't its
	// subscriber yet), so looking it up there reports not-found.
	if _, err := env.b2.hs.Observer().Traces.Lookup(firstTrace); !errors.Is(err, span.ErrNotFound) {
		t.Fatalf("successor's recorder resolved the dead broker's trace %s (err=%v)", firstTrace, err)
	}
}
