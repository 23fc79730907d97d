package span

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"gobad/internal/obs"
)

// goldenTraces is the /v1/debug/traces body for the fixed three-span trace
// below. The recorder holds binary IDs and formats them only here, at
// export; the bytes are the ones the recorder produced when it formatted
// every ID at End.
const goldenTraces = `{
  "service": "badbroker",
  "spans_started": 3,
  "traces_retained": 1,
  "spans_dropped": 0,
  "traces": [
    {
      "trace_id": "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
      "reason": "error",
      "spans": [
        {
          "trace_id": "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
          "span_id": "1011121314151617",
          "parent_id": "0102030405060708",
          "name": "http /v1/subscriptions/{fs}/results",
          "service": "badbroker",
          "start_unix_nano": 1700000000000000000,
          "duration_ns": 3015000,
          "attrs": {
            "method": "GET",
            "status": "502"
          }
        },
        {
          "trace_id": "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
          "span_id": "2021222324252627",
          "parent_id": "1011121314151617",
          "name": "broker.client_ack",
          "service": "badbroker",
          "start_unix_nano": 1700000000001000000,
          "duration_ns": 15000,
          "attrs": {
            "subscriber": "alice"
          }
        },
        {
          "trace_id": "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
          "span_id": "3031323334353637",
          "parent_id": "1011121314151617",
          "name": "cache.cluster_fetch",
          "service": "badbroker",
          "start_unix_nano": 1700000000001015000,
          "duration_ns": 2000000,
          "error": "cluster unreachable",
          "attrs": {
            "objects": "0"
          }
        }
      ]
    }
  ]
}
`

// TestDebugTracesGolden pins the export format byte for byte: root with a
// remote parent, one child with attributes, one failed child.
func TestDebugTracesGolden(t *testing.T) {
	clk := newTestClock()
	r := clocked("badbroker", clk)
	id := func(b byte) (out [8]byte) {
		for i := range out {
			out[i] = b + byte(i)
		}
		return out
	}
	var tid [16]byte
	for i := range tid {
		tid[i] = 0xa0 + byte(i)
	}
	sc := func(b byte) obs.SpanContext { return obs.SpanContext{TraceID: tid, SpanID: id(b), Flags: 1} }

	ctx, root := r.startWith(context.Background(), "http /v1/subscriptions/{fs}/results", sc(0x10), id(0x01), true)
	root.SetAttr("method", "GET")
	clk.Advance(time.Millisecond)
	_, ack := r.startWith(ctx, "broker.client_ack", sc(0x20), id(0x10), true)
	ack.SetAttr("subscriber", "alice")
	clk.Advance(15 * time.Microsecond)
	ack.End()
	_, hit := r.startWith(ctx, "broker.retrieve", sc(0x30), id(0x10), true)
	hit.SetName("cache.cluster_fetch")
	hit.SetAttr("objects", "0")
	hit.SetError(errors.New("cluster unreachable"))
	clk.Advance(2 * time.Millisecond)
	hit.End()
	root.SetAttr("status", "502")
	root.End()

	var buf bytes.Buffer
	if err := r.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenTraces {
		t.Errorf("export changed:\n%s\nwant:\n%s", got, goldenTraces)
	}
}

// TestSpanHotPathAllocs bounds what one span costs a request nobody
// traces — a recorder at default sampling, two attributes — and keeps ID
// formatting out of it: the budget below has no room for a hex string
// (formatting trace, span and parent ID at End cost six more).
func TestSpanHotPathAllocs(t *testing.T) {
	r := NewRecorder("badbroker")
	ctx := obs.ContextWithSpan(context.Background(), obs.NewSpan())
	allocs := testing.AllocsPerRun(200, func() {
		_, sp := r.Start(ctx, "http /v1/subscriptions/{fs}/results")
		sp.SetAttr("method", "GET")
		sp.SetAttr("status", "200")
		sp.End()
	})
	// Two: the span — attributes inline, and the trace's buffer inline in
	// the span that opened it — and its context node. The parent spent
	// seven: the span, a context.WithValue node plus the boxed
	// SpanContext, the trace buffer and its first slot, and the attribute
	// map (header + bucket).
	if allocs > 3 {
		t.Errorf("Start+SetAttr×2+End = %v allocs, want at most 3", allocs)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	r := NewRecorder("badbroker")
	ctx := obs.ContextWithSpan(context.Background(), obs.NewSpan())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := r.Start(ctx, "http /v1/subscriptions/{fs}/results")
		sp.SetAttr("method", "GET")
		sp.SetAttr("status", "200")
		sp.End()
	}
}
