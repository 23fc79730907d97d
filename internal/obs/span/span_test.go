package span

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gobad/internal/obs"
)

// testClock is a manually advanced wall clock.
type testClock struct{ now time.Time }

func newTestClock() *testClock {
	return &testClock{now: time.Unix(1_700_000_000, 0)}
}
func (c *testClock) Now() time.Time          { return c.now }
func (c *testClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// clocked is NewRecorder on a test clock.
func clocked(service string, clk *testClock) *Recorder {
	r := NewRecorder(service)
	r.now = clk.Now
	return r
}

func TestSpanParentLinksAndAttrs(t *testing.T) {
	clk := newTestClock()
	r := clocked("test", clk)

	ctx, root := r.Start(context.Background(), "root")
	root.SetAttr("channel", "nearby")
	clk.Advance(5 * time.Millisecond)
	_, child := r.Start(ctx, "child")
	clk.Advance(3 * time.Millisecond)
	child.End()
	root.End()

	traces := r.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.Spans))
	}
	// Snapshot sorts by start: root first.
	rootRec, childRec := tr.Spans[0], tr.Spans[1]
	if rootRec.Name != "root" || childRec.Name != "child" {
		t.Fatalf("span order wrong: %q, %q", rootRec.Name, childRec.Name)
	}
	if rootRec.ParentID != "" {
		t.Errorf("root has parent %q", rootRec.ParentID)
	}
	if childRec.ParentID != rootRec.SpanID {
		t.Errorf("child parent = %q, want %q", childRec.ParentID, rootRec.SpanID)
	}
	if childRec.TraceID != rootRec.TraceID {
		t.Errorf("trace IDs differ: %q vs %q", childRec.TraceID, rootRec.TraceID)
	}
	if rootRec.Attrs["channel"] != "nearby" {
		t.Errorf("attrs = %v", rootRec.Attrs)
	}
	if childRec.DurationNS != (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("child duration = %d", childRec.DurationNS)
	}
	if childRec.StartNano <= rootRec.StartNano {
		t.Errorf("child start %d not after root start %d", childRec.StartNano, rootRec.StartNano)
	}
	if rootRec.Service != "test" {
		t.Errorf("service = %q", rootRec.Service)
	}
}

func TestTailSamplingRetainsErrorAndSlow(t *testing.T) {
	clk := newTestClock()
	r := clocked("test", clk)
	r.slow = 100 * time.Millisecond

	_, fast := r.Start(context.Background(), "fast")
	clk.Advance(time.Millisecond)
	fast.End()

	_, failed := r.Start(context.Background(), "failed")
	failed.SetError(errors.New("boom"))
	clk.Advance(time.Millisecond)
	failed.End()

	_, slow := r.Start(context.Background(), "slow")
	clk.Advance(150 * time.Millisecond)
	slow.End()

	traces := r.Snapshot()
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3 (ordinary + error + slow): %+v", len(traces), traces)
	}
	reasons := map[string]string{}
	for _, tr := range traces {
		reasons[tr.Spans[0].Name] = tr.Reason
	}
	if reasons["failed"] != ReasonError {
		t.Errorf("failed trace reason = %q", reasons["failed"])
	}
	if reasons["slow"] != ReasonSlow {
		t.Errorf("slow trace reason = %q", reasons["slow"])
	}
	if reasons["fast"] != ReasonSampled {
		t.Errorf("ordinary trace reason = %q", reasons["fast"])
	}
}

func TestTailSamplingDefaultKeepsAll(t *testing.T) {
	clk := newTestClock()
	r := clocked("test", clk)
	_, s := r.Start(context.Background(), "fast")
	s.End()
	traces := r.Snapshot()
	if len(traces) != 1 || traces[0].Reason != ReasonSampled {
		t.Fatalf("default ratio should retain: %+v", traces)
	}
}

func TestRingBounded(t *testing.T) {
	clk := newTestClock()
	r := clocked("test", clk)
	r.capacity = 4
	var last string
	for i := 0; i < 10; i++ {
		_, s := r.Start(context.Background(), "s")
		last = s.Context().TraceIDString()
		s.End()
	}
	traces := r.Snapshot()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(traces))
	}
	// Newest trace must still be present; the ring evicts oldest-first.
	if traces[len(traces)-1].TraceID != last {
		t.Errorf("newest trace evicted; last in ring = %s, want %s",
			traces[len(traces)-1].TraceID, last)
	}
}

func TestActiveTraceEviction(t *testing.T) {
	clk := newTestClock()
	r := clocked("test", clk)
	r.maxActive = 2
	_, a := r.Start(context.Background(), "a")
	_, b := r.Start(context.Background(), "b")
	_, c := r.Start(context.Background(), "c") // evicts a's buffer
	a.End()                                    // lands on a missing buffer: dropped
	b.End()
	c.End()
	traces := r.Snapshot()
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if sp.Name == "a" {
				t.Fatalf("evicted trace leaked into ring: %+v", tr)
			}
		}
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	e := r.export()
	if e.SpansDropped == 0 {
		t.Errorf("eviction not counted in SpansDropped")
	}
}

func TestStartRootIgnoresParent(t *testing.T) {
	r := NewRecorder("test")
	ctx, outer := r.Start(context.Background(), "outer")
	ctx2, fresh := r.StartRoot(ctx, "fresh")
	if fresh.Context().TraceID == outer.Context().TraceID {
		t.Fatalf("StartRoot reused the parent trace")
	}
	sc, ok := obs.SpanFromContext(ctx2)
	if !ok || sc.TraceID != fresh.Context().TraceID {
		t.Fatalf("StartRoot did not install the new trace in ctx")
	}
	fresh.End()
	outer.End()
	tr, err := r.Lookup(fresh.Context().TraceIDString())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Spans[0].ParentID != "" {
		t.Errorf("fresh root has parent %q", tr.Spans[0].ParentID)
	}
}

func TestNilRecorderAndSpanAreSafe(t *testing.T) {
	var r *Recorder
	ctx, s := r.Start(context.Background(), "noop")
	if s != nil {
		t.Fatalf("nil recorder returned non-nil span")
	}
	// Propagation still works: the ctx carries a fresh span context.
	if _, ok := obs.SpanFromContext(ctx); !ok {
		t.Fatalf("nil recorder did not install a span context")
	}
	s.SetAttr("k", "v")
	s.SetError(errors.New("x"))
	s.SetName("renamed")
	s.End()
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v", got)
	}
	var buf bytes.Buffer
	if err := r.DumpJSON(&buf); err != nil {
		t.Fatalf("nil DumpJSON: %v", err)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
}

func TestEndIdempotentAndLateMutationIgnored(t *testing.T) {
	r := NewRecorder("test")
	_, s := r.Start(context.Background(), "once")
	s.End()
	s.SetAttr("late", "x")
	s.SetError(errors.New("late"))
	s.End()
	traces := r.Snapshot()
	if len(traces) != 1 || len(traces[0].Spans) != 1 {
		t.Fatalf("double End duplicated the span: %+v", traces)
	}
	if traces[0].Spans[0].Error != "" || traces[0].Spans[0].Attrs["late"] != "" {
		t.Errorf("post-End mutation applied: %+v", traces[0].Spans[0])
	}
}

func TestHandlerAndDumpJSON(t *testing.T) {
	clk := newTestClock()
	r := clocked("badbroker", clk)
	ctx, root := r.Start(context.Background(), "http /v1/subscriptions")
	_, child := r.Start(ctx, "cache.local_hit")
	clk.Advance(2 * time.Millisecond)
	child.End()
	root.End()

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var e Export
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Service != "badbroker" || e.SpansStarted != 2 || len(e.Traces) != 1 {
		t.Fatalf("export = %+v", e)
	}
	if len(e.Traces[0].Spans) != 2 {
		t.Fatalf("trace spans = %+v", e.Traces[0])
	}

	var buf bytes.Buffer
	if err := r.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var e2 Export
	if err := json.Unmarshal(buf.Bytes(), &e2); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if e2.TracesRetained != 1 {
		t.Errorf("dump retained = %d", e2.TracesRetained)
	}
}

func TestSnapshotMergesRevisitedTrace(t *testing.T) {
	clk := newTestClock()
	r := clocked("test", clk)
	// First leg: webhook arrives, span opens and closes -> finalized.
	ctx, leg1 := r.Start(context.Background(), "broker.notify")
	clk.Advance(time.Millisecond)
	leg1.End()
	// Second leg, same trace, later: the client's retrieval.
	clk.Advance(10 * time.Millisecond)
	_, leg2 := r.Start(ctx, "broker.retrieve")
	clk.Advance(time.Millisecond)
	leg2.End()

	traces := r.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("revisited trace not merged: %d entries", len(traces))
	}
	if len(traces[0].Spans) != 2 {
		t.Fatalf("merged spans = %d, want 2", len(traces[0].Spans))
	}
	if traces[0].Spans[0].Name != "broker.notify" {
		t.Errorf("merge lost start ordering: %+v", traces[0].Spans)
	}
}

func TestCollectorCounters(t *testing.T) {
	r := NewRecorder("test")
	_, s := r.Start(context.Background(), "ordinary")
	s.End()
	reg := obs.NewRegistry()
	reg.MustRegister(r.Collector())
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"bad_trace_spans_started_total 1",
		"bad_traces_retained_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestStagesObserveAndSlowLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	st := NewStages(50*time.Millisecond, obs.WrapLogger(logger))

	sc := obs.NewSpan()
	ctx := obs.ContextWithSpan(context.Background(), sc)
	st.Observe(ctx, StageRetrieve, OutcomePeerHop, 80*time.Millisecond) // slow
	st.Observe(ctx, StageWSWrite, "", time.Millisecond)                 // fast, outcome defaults

	reg := obs.NewRegistry()
	reg.MustRegister(st.Histogram())
	var expo bytes.Buffer
	if err := reg.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	if !strings.Contains(out, `bad_delivery_latency_seconds_count{outcome="peer_hop",stage="retrieve"} 1`) &&
		!strings.Contains(out, `bad_delivery_latency_seconds_count{stage="retrieve",outcome="peer_hop"} 1`) {
		t.Errorf("retrieve observation missing:\n%s", out)
	}
	if !strings.Contains(out, `stage="ws_write"`) || !strings.Contains(out, `outcome="none"`) {
		t.Errorf("ws_write/none observation missing:\n%s", out)
	}

	logs := buf.String()
	if !strings.Contains(logs, "slow delivery stage") {
		t.Fatalf("no slow log line:\n%s", logs)
	}
	if !strings.Contains(logs, sc.TraceIDString()) {
		t.Errorf("slow log line missing trace ID:\n%s", logs)
	}
	if strings.Contains(logs, "ws_write") {
		t.Errorf("fast observation logged:\n%s", logs)
	}

	var nilStages *Stages
	nilStages.Observe(ctx, StageRetrieve, OutcomeNone, time.Second) // must not panic
}

// The in-memory stages run in tens of microseconds; the layout must
// resolve them instead of folding everything under 0.5 ms into one bucket.
func TestDeliveryBucketsResolveMicroseconds(t *testing.T) {
	want := []float64{.000025, .00005, .0001, .00025, .0005, .001}
	for i, ub := range want {
		if DeliveryBuckets[i] != ub {
			t.Fatalf("DeliveryBuckets[%d] = %v, want %v", i, DeliveryBuckets[i], ub)
		}
	}
	st := NewStages(0, nil)
	st.Observe(context.Background(), StageQueueWait, "", 30*time.Microsecond)
	reg := obs.NewRegistry()
	reg.MustRegister(st.Histogram())
	var expo bytes.Buffer
	if err := reg.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	parsed, err := obs.ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	for le, n := range map[string]float64{"2.5e-05": 0, "5e-05": 1} {
		found := false
		for key, v := range parsed.Samples {
			if strings.Contains(key, `stage="queue_wait"`) && strings.Contains(key, `le="`+le+`"`) {
				found = true
				if v != n {
					t.Errorf("%s = %v, want %v", key, v, n)
				}
			}
		}
		if !found {
			t.Errorf("no queue_wait bucket le=%q in:\n%s", le, out)
		}
	}
}
