// Package span turns the traceparent plumbing in internal/obs into a real
// span subsystem: explicit start/end with parent links and attributes and
// a bounded per-process ring of finished traces, each labelled error, slow
// or ordinary. It stays stdlib-only — the module has zero dependencies and
// this package must keep it that way.
//
// The design is deliberately small. A Recorder buffers the spans of each
// in-flight trace; when the last locally-open span of a trace ends, the
// whole trace enters the ring with its reason (error anywhere, total
// duration over the slow threshold, or neither), overwriting the oldest.
// A process can therefore answer "show me the slow deliveries" from memory
// without shipping every span to a backend.
//
// Every method on Recorder and Span is nil-receiver safe, so call sites
// never need a guard: an unconfigured component pays one pointer test per
// operation and records nothing.
package span

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"gobad/internal/obs"
)

// The bounds every Recorder runs with.
const (
	// DefaultCapacity bounds the ring of retained (finished) traces.
	DefaultCapacity = 256
	// DefaultMaxActive bounds the number of in-flight traces buffered at
	// once; beyond it the oldest active trace is dropped.
	DefaultMaxActive = 1024
	// DefaultMaxSpansPerTrace bounds one trace's span buffer so a
	// runaway loop cannot hold the recorder's memory hostage.
	DefaultMaxSpansPerTrace = 512
	// DefaultSlowThreshold marks a trace slow when its local wall-clock
	// footprint reaches it.
	DefaultSlowThreshold = 250 * time.Millisecond
)

// Record is one finished span as exported by /v1/debug/traces and
// -trace-out.
type Record struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Service    string            `json:"service,omitempty"`
	StartNano  int64             `json:"start_unix_nano"`
	DurationNS int64             `json:"duration_ns"`
	Error      string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Trace is a retained trace: every span this process recorded for one
// trace ID, plus what kind of trace it is.
type Trace struct {
	TraceID string `json:"trace_id"`
	// Reason classifies the trace: "error", "slow" or "sampled" (neither).
	Reason string   `json:"reason"`
	Spans  []Record `json:"spans"`
}

// Reasons, strongest first: an error anywhere in the trace wins over slow,
// which wins over sampled (an ordinary trace).
const (
	ReasonError   = "error"
	ReasonSlow    = "slow"
	ReasonSampled = "sampled"
)

// rawTrace is a retained trace in the ring: the finished spans as they
// ended, IDs still binary. Most traces are buffered, retained and
// overwritten in the ring without ever being exported, so the hex forms a
// Record carries are produced by Snapshot, not by End.
type rawTrace struct {
	id     [16]byte
	reason string
	spans  []*Span
}

// traceBuf buffers the spans of one in-flight trace until its last
// locally-open span ends. The first spans land in inline, so a request's
// trace (its server span and the two or three below it) grows nothing.
type traceBuf struct {
	spans   []*Span
	open    int
	dropped int // spans beyond maxSpansPerTrace
	inline  [4]*Span
}

// Recorder collects spans into per-trace buffers and retains finished
// traces in a bounded ring. The zero value is not usable; use NewRecorder.
// A nil *Recorder is a valid no-op recorder.
type Recorder struct {
	service   string
	slow      time.Duration
	capacity  int
	maxActive int
	maxSpans  int
	now       func() time.Time

	mu          sync.Mutex
	active      map[[16]byte]*traceBuf
	activeOrder [][16]byte // insertion order, for overflow eviction
	ring        []rawTrace // circular, len == capacity once full
	ringNext    int

	started  uint64 // spans started
	retained uint64 // traces finished and put in the ring
	dropped  uint64 // spans lost to buffer bounds
}

// NewRecorder builds a Recorder whose exported spans carry service as
// their service name.
func NewRecorder(service string) *Recorder {
	return &Recorder{
		service:   service,
		slow:      DefaultSlowThreshold,
		capacity:  DefaultCapacity,
		maxActive: DefaultMaxActive,
		maxSpans:  DefaultMaxSpansPerTrace,
		now:       time.Now,
		active:    make(map[[16]byte]*traceBuf),
	}
}

// Span is one in-flight span. Mutate it (SetAttr, SetError, SetName) only
// from the goroutine that started it, then End it exactly once; an ended
// span is immutable and is what the recorder buffers. A nil *Span is a
// valid no-op.
//
// A span is one allocation. It is its own context node (obs.SpanNode),
// which any goroutine may use while its owner mutates and ends it: the
// node's fields are set before the span is shared and never change. Its first attributes live in
// attrBuf, and the span that opens a trace carries that trace's buffer in
// buf. Attributes become a map only when exported.
type Span struct {
	obs.SpanNode
	rec       *Recorder
	parent    [8]byte
	hasParent bool
	name      string
	start     time.Time
	dur       time.Duration
	attrs     []attr
	errMsg    string
	ended     bool
	attrBuf   [4]attr
	buf       traceBuf
}

// attr is one key/value attribute; a later SetAttr of the same key
// replaces the value in place.
type attr struct{ key, value string }

// Start begins a span named name as a child of the span context carried
// by ctx (minting a new root trace when ctx has none) and returns the
// span as the context that carries it under ctx, so logging and outbound
// HTTP pick it up. On a nil Recorder the context wiring still happens —
// trace propagation works without recording — and the returned *Span is
// nil.
func (r *Recorder) Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := obs.SpanFromContext(ctx)
	return r.StartFrom(ctx, parent, name)
}

// StartRoot begins a span in a brand-new trace, ignoring any span context
// already in ctx. Resumed sessions use it so post-failover deliveries do
// not inherit a dead broker's trace.
func (r *Recorder) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	return r.StartFrom(ctx, obs.SpanContext{}, name)
}

// StartFrom is Start with the parent given rather than read from ctx: a
// traceparent a request carried, or the span context a queued item held,
// is joined without a context node of its own. An invalid parent mints a
// new root trace.
func (r *Recorder) StartFrom(ctx context.Context, parent obs.SpanContext, name string) (context.Context, *Span) {
	if parent.Valid() {
		return r.startWith(ctx, name, parent.Child(), parent.SpanID, true)
	}
	return r.startWith(ctx, name, obs.NewSpan(), [8]byte{}, false)
}

func (r *Recorder) startWith(ctx context.Context, name string, sc obs.SpanContext, parent [8]byte, hasParent bool) (context.Context, *Span) {
	if r == nil {
		return obs.ContextWithSpan(ctx, sc), nil
	}
	s := &Span{
		SpanNode:  obs.SpanNode{Context: ctx, SpanContext: sc},
		rec:       r,
		parent:    parent,
		hasParent: hasParent,
		name:      name,
		start:     r.now(),
	}
	s.attrs = s.attrBuf[:0]
	r.mu.Lock()
	r.started++
	tb := r.active[sc.TraceID]
	if tb == nil {
		if len(r.activeOrder) >= r.maxActive {
			oldest := r.activeOrder[0]
			r.activeOrder = r.activeOrder[1:]
			if ob := r.active[oldest]; ob != nil {
				r.dropped += uint64(len(ob.spans) + ob.open)
			}
			delete(r.active, oldest)
		}
		tb = &s.buf
		tb.spans = tb.inline[:0]
		r.active[sc.TraceID] = tb
		r.activeOrder = append(r.activeOrder, sc.TraceID)
	}
	tb.open++
	r.mu.Unlock()
	return s, s
}

// Context returns the span's span context (zero for a nil span); the span
// itself is the context.Context that carries it.
func (s *Span) Context() obs.SpanContext {
	if s == nil {
		return obs.SpanContext{}
	}
	return s.SpanContext
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.ended {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	s.attrs = append(s.attrs, attr{key, value})
}

// SetName renames the span; cache-resolution spans use it once the
// outcome (local hit, peer hop, ...) is known.
func (s *Span) SetName(name string) {
	if s == nil || s.ended {
		return
	}
	s.name = name
}

// SetError marks the span failed; the whole trace is then always
// retained. A nil err is ignored.
func (s *Span) SetError(err error) {
	if s == nil || s.ended || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// End finishes the span and, if it was the trace's last locally-open
// span, moves the whole trace into the ring. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	r := s.rec
	s.dur = r.now().Sub(s.start)

	r.mu.Lock()
	defer r.mu.Unlock()
	tb := r.active[s.SpanContext.TraceID]
	if tb == nil {
		// The trace buffer was evicted while this span was open; the
		// span is lost, which the dropped counter already accounts for.
		return
	}
	if len(tb.spans) < r.maxSpans {
		tb.spans = append(tb.spans, s)
	} else {
		tb.dropped++
		r.dropped++
	}
	tb.open--
	if tb.open > 0 {
		return
	}
	delete(r.active, s.SpanContext.TraceID)
	for i, id := range r.activeOrder {
		if id == s.SpanContext.TraceID {
			r.activeOrder = append(r.activeOrder[:i], r.activeOrder[i+1:]...)
			break
		}
	}
	r.finalizeLocked(s.SpanContext.TraceID, tb)
}

// finalizeLocked classifies a finished trace (tb holds at least the span
// that just ended) and puts it in the ring. Caller holds r.mu.
func (r *Recorder) finalizeLocked(id [16]byte, tb *traceBuf) {
	reason := ReasonSampled
	var minStart, maxEnd int64
	for i, sp := range tb.spans {
		if sp.errMsg != "" {
			reason = ReasonError
		}
		start := sp.start.UnixNano()
		if i == 0 || start < minStart {
			minStart = start
		}
		if e := start + sp.dur.Nanoseconds(); i == 0 || e > maxEnd {
			maxEnd = e
		}
	}
	if reason != ReasonError && time.Duration(maxEnd-minStart) >= r.slow {
		reason = ReasonSlow
	}
	r.retained++
	t := rawTrace{id: id, reason: reason, spans: tb.spans}
	if len(r.ring) < r.capacity {
		r.ring = append(r.ring, t)
		r.ringNext = len(r.ring) % r.capacity
		return
	}
	r.ring[r.ringNext] = t
	r.ringNext = (r.ringNext + 1) % r.capacity
}

// Snapshot returns the retained traces, oldest first, with entries for
// the same trace ID (a trace can finalize more than once when separate
// request legs touch this process at different times) merged: spans
// concatenated and sorted by start time, the strongest reason kept. This
// is where span and trace IDs take their hex form.
func (r *Recorder) Snapshot() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ordered := make([]rawTrace, 0, len(r.ring))
	if len(r.ring) == r.capacity {
		ordered = append(ordered, r.ring[r.ringNext:]...)
		ordered = append(ordered, r.ring[:r.ringNext]...)
	} else {
		ordered = append(ordered, r.ring...)
	}
	r.mu.Unlock()

	byID := make(map[[16]byte]int, len(ordered))
	out := make([]Trace, 0, len(ordered))
	for _, t := range ordered {
		i, ok := byID[t.id]
		if !ok {
			i = len(out)
			byID[t.id] = i
			out = append(out, Trace{TraceID: hex.EncodeToString(t.id[:])})
		}
		if reasonRank(t.reason) > reasonRank(out[i].Reason) {
			out[i].Reason = t.reason
		}
		for _, sp := range t.spans {
			rec := Record{
				TraceID:    out[i].TraceID,
				SpanID:     hex.EncodeToString(sp.SpanContext.SpanID[:]),
				Name:       sp.name,
				Service:    r.service,
				StartNano:  sp.start.UnixNano(),
				DurationNS: sp.dur.Nanoseconds(),
				Error:      sp.errMsg,
			}
			if len(sp.attrs) > 0 {
				rec.Attrs = make(map[string]string, len(sp.attrs))
				for _, a := range sp.attrs {
					rec.Attrs[a.key] = a.value
				}
			}
			if sp.hasParent {
				rec.ParentID = hex.EncodeToString(sp.parent[:])
			}
			out[i].Spans = append(out[i].Spans, rec)
		}
	}
	for i := range out {
		sort.SliceStable(out[i].Spans, func(a, b int) bool {
			return out[i].Spans[a].StartNano < out[i].Spans[b].StartNano
		})
	}
	return out
}

func reasonRank(r string) int {
	switch r {
	case ReasonError:
		return 3
	case ReasonSlow:
		return 2
	case ReasonSampled:
		return 1
	}
	return 0
}

// Export is the JSON document served by /v1/debug/traces and written by
// -trace-out.
type Export struct {
	Service        string  `json:"service"`
	SpansStarted   uint64  `json:"spans_started"`
	TracesRetained uint64  `json:"traces_retained"`
	SpansDropped   uint64  `json:"spans_dropped"`
	Traces         []Trace `json:"traces"`
}

// export builds the JSON payload.
func (r *Recorder) export() Export {
	if r == nil {
		return Export{Traces: []Trace{}}
	}
	traces := r.Snapshot()
	r.mu.Lock()
	e := Export{
		Service:        r.service,
		SpansStarted:   r.started,
		TracesRetained: r.retained,
		SpansDropped:   r.dropped,
		Traces:         traces,
	}
	r.mu.Unlock()
	if e.Traces == nil {
		e.Traces = []Trace{}
	}
	return e
}

// DumpJSON writes the retained traces as an indented JSON document (the
// -trace-out format).
func (r *Recorder) DumpJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.export())
}

// Handler serves GET /v1/debug/traces. A nil Recorder serves an empty
// document, so the route can be registered unconditionally.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.DumpJSON(w)
	})
}

// Collector exposes the recorder's health counters on /metrics.
func (r *Recorder) Collector() obs.Collector {
	return obs.CollectorFunc(func(emit func(obs.Family)) {
		if r == nil {
			return
		}
		r.mu.Lock()
		started, retained, dropped := r.started, r.retained, r.dropped
		r.mu.Unlock()
		emit(obs.Family{Name: "bad_trace_spans_started_total", Help: "Spans started by the in-process recorder.",
			Type: obs.CounterType, Points: []obs.Point{{Value: float64(started)}}})
		emit(obs.Family{Name: "bad_traces_retained_total", Help: "Finished traces put in the ring (error, slow, or sampled).",
			Type: obs.CounterType, Points: []obs.Point{{Value: float64(retained)}}})
		emit(obs.Family{Name: "bad_trace_spans_dropped_total", Help: "Spans lost to recorder buffer bounds.",
			Type: obs.CounterType, Points: []obs.Point{{Value: float64(dropped)}}})
	})
}

// ErrNotFound reports a trace ID absent from the ring (used by tests and
// Lookup callers).
var ErrNotFound = errors.New("span: trace not found")

// Lookup returns the retained trace with the given hex trace ID.
func (r *Recorder) Lookup(traceID string) (Trace, error) {
	for _, t := range r.Snapshot() {
		if t.TraceID == traceID {
			return t, nil
		}
	}
	return Trace{}, fmt.Errorf("%w: %s", ErrNotFound, traceID)
}
