package broker

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gobad/internal/obs"
	"gobad/internal/obs/span"
)

// spanNames collects the span names a recorder retained for one trace.
func spanNames(rec *span.Recorder, traceID string) map[string]span.Record {
	out := map[string]span.Record{}
	for _, tr := range rec.Snapshot() {
		if tr.TraceID != traceID {
			continue
		}
		for _, s := range tr.Spans {
			out[s.Name] = s
		}
	}
	return out
}

// TestPeerLookupSharesTrace: a traced retrieval that misses locally and is
// served by the owning sibling produces ONE trace across both brokers —
// the edge's cache.peer_hop and fabric.peer_lookup spans plus the owner's
// peer-protocol server span all carry the caller's trace ID.
func TestPeerLookupSharesTrace(t *testing.T) {
	env := newFabricEnv(t)
	edgeRec := span.NewRecorder("edge")
	stages := span.NewStages(span.DefaultSlowThreshold, nil)
	env.edge.SetTracing(edgeRec, stages)

	if _, err := env.owner.Subscribe("olga", "Alerts", []any{"fire"}); err != nil {
		t.Fatal(err)
	}
	fs, err := env.edge.Subscribe("edna", "Alerts", []any{"fire"})
	if err != nil {
		t.Fatal(err)
	}
	env.publish(t, "fire", 2)

	parent := obs.NewSpan()
	ctx := obs.ContextWithSpan(context.Background(), parent)
	ret, err := env.edge.RetrieveContext(ctx, "edna", fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 1 {
		t.Fatalf("got %d results, want 1", len(ret.Items))
	}
	if h := env.edge.Stats().PeerHits.Value(); h != 1 {
		t.Fatalf("peer hits = %v, want 1 (retrieval must have peer-hopped)", h)
	}

	traceID := parent.TraceIDString()
	edgeSpans := spanNames(edgeRec, traceID)
	if _, ok := edgeSpans["cache.peer_hop"]; !ok {
		t.Errorf("edge trace %s missing cache.peer_hop span, has %v", traceID, keys(edgeSpans))
	}
	if _, ok := edgeSpans["fabric.peer_lookup"]; !ok {
		t.Errorf("edge trace %s missing fabric.peer_lookup span, has %v", traceID, keys(edgeSpans))
	}
	ownerSpans := spanNames(env.ownerHTTP.Observer().Traces, traceID)
	if _, ok := ownerSpans["http /v1/peer/results/{key}"]; !ok {
		t.Errorf("owner recorder has no peer-protocol span for trace %s, has %v", traceID, keys(ownerSpans))
	}

	// The peer hop fed the per-stage SLO histogram under its own stage.
	reg := obs.NewRegistry()
	reg.MustRegister(stages.Histogram())
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`stage="peer_lookup"`,
		`stage="retrieve",outcome="peer_hop"`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("delivery histogram missing %s:\n%s", want, buf.String())
		}
	}
}

func keys(m map[string]span.Record) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestPeerLatencyLabelCardinalityBounded: the per-peer lookup histogram
// tracks at most fabricPeerCap distinct peers; further peers share the
// "_other" overflow bucket, so ring churn cannot grow the label set without
// bound.
func TestPeerLatencyLabelCardinalityBounded(t *testing.T) {
	env := newFabricEnv(t)
	f := env.edge.fabric
	const peers = fabricPeerCap + 9
	for i := 0; i < peers; i++ {
		f.observePeer(fmt.Sprintf("peer-%02d", i), time.Millisecond)
	}
	// A repeat observation of an already-tracked peer must still land on
	// its own series, not the overflow bucket.
	f.observePeer("peer-00", 2*time.Millisecond)

	counts := map[string]uint64{}
	f.peerLat.Collect(func(fam obs.Family) {
		if fam.Name != "bad_peer_lookup_seconds" || fam.Type != obs.HistogramType {
			t.Errorf("family = %s (%s), want the bad_peer_lookup_seconds histogram", fam.Name, fam.Type)
		}
		for _, p := range fam.Points {
			if len(p.Labels) != 1 || p.Labels[0].Name != "peer" {
				t.Errorf("labels = %v, want exactly {peer}", p.Labels)
				continue
			}
			counts[p.Labels[0].Value] = p.Hist.Count
		}
	})
	if len(counts) != fabricPeerCap+1 {
		t.Errorf("exposition emits %d peer series, want %d (cap + overflow)", len(counts), fabricPeerCap+1)
	}
	if got, want := counts[peerOverflowLabel], uint64(peers-fabricPeerCap); got != want {
		t.Errorf("overflow bucket count = %d, want %d", got, want)
	}
	if got := counts["peer-00"]; got != 2 {
		t.Errorf("peer-00 count = %d, want 2 (own series, both observations)", got)
	}
	if got := counts[fmt.Sprintf("peer-%02d", fabricPeerCap-1)]; got != 1 {
		t.Errorf("last peer under the cap: count = %d, want 1", got)
	}
}

// TestPeerLookupObservationsBounded: a broker lives for weeks, so 10⁵
// lookups against one peer leave the retained heap flat — buckets, where a
// sample kept per lookup would hold 800 KB.
func TestPeerLookupObservationsBounded(t *testing.T) {
	f := newFabricEnv(t).edge.fabric
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	f.observePeer("peer", time.Millisecond)
	before := liveHeap()
	for i := 0; i < 100000; i++ {
		f.observePeer("peer", time.Millisecond)
	}
	if grew := liveHeap() - before; grew > 256<<10 {
		t.Errorf("10⁵ peer-lookup observations retained %d bytes", grew)
	}
}
