package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// TraceparentHeader is the W3C Trace Context header carrying the span
// context across process boundaries:
//
//	traceparent: 00-<32 hex trace-id>-<16 hex parent-span-id>-<2 hex flags>
//
// httpx server middleware parses it off inbound requests (minting a fresh
// trace when absent) and httpx.DoJSONContext stamps it onto outbound
// requests, so one subscriber retrieval is traceable broker -> cluster.
const TraceparentHeader = "Traceparent"

// SpanContext identifies one span of one trace, W3C Trace Context style.
type SpanContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// Valid reports whether both IDs are non-zero, as the spec requires.
func (sc SpanContext) Valid() bool {
	return sc.TraceID != [16]byte{} && sc.SpanID != [8]byte{}
}

// TraceIDString returns the 32-hex-digit trace ID.
func (sc SpanContext) TraceIDString() string { return hex.EncodeToString(sc.TraceID[:]) }

// SpanIDString returns the 16-hex-digit span ID.
func (sc SpanContext) SpanIDString() string { return hex.EncodeToString(sc.SpanID[:]) }

// Traceparent renders the header value (version 00).
func (sc SpanContext) Traceparent() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, sc.TraceID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, sc.SpanID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, []byte{sc.Flags})
	return string(buf)
}

// Child returns a new span in the same trace (fresh span ID, flags kept).
func (sc SpanContext) Child() SpanContext {
	out := sc
	mustRandom(out.SpanID[:])
	return out
}

// NewSpan mints a root span: new trace ID, new span ID, sampled flag set.
func NewSpan() SpanContext {
	var sc SpanContext
	mustRandom(sc.TraceID[:])
	mustRandom(sc.SpanID[:])
	sc.Flags = 0x01
	return sc
}

// ParseTraceparent parses a traceparent header value. It accepts version 00
// (and unknown future versions with the same prefix shape, per spec) and
// rejects all-zero IDs.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	var version [1]byte
	if _, err := hex.Decode(version[:], []byte(s[0:2])); err != nil || version[0] == 0xff {
		return sc, false
	}
	if version[0] == 0 && len(s) != 55 {
		return sc, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return sc, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return sc, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return sc, false
	}
	sc.Flags = flags[0]
	if !sc.Valid() {
		return sc, false
	}
	return sc, true
}

// mustRandom fills b from crypto/rand; ID generation failing means the
// platform's randomness is broken, which is not recoverable here.
func mustRandom(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic("obs: crypto/rand failed: " + err.Error())
	}
}

type ctxKey uint8

const (
	ctxKeySpan ctxKey = iota
	ctxKeyRequestID
)

// valueCtx is the context node this package installs for each of its
// keys: one allocation, where context.WithValue costs a node plus the
// boxed value, and Value answers the node's key with the node itself — a
// pointer, so reading the value back boxes nothing either. A request a
// server handles installs two span contexts and a request ID.
type valueCtx[T any] struct {
	context.Context
	key ctxKey
	val T
}

func (c *valueCtx[T]) Value(key any) any {
	if key == c.key {
		return c
	}
	return c.Context.Value(key)
}

// fromContext returns the value installed under key, if any.
func fromContext[T any](ctx context.Context, key ctxKey) (T, bool) {
	c, ok := ctx.Value(key).(*valueCtx[T])
	if !ok {
		var zero T
		return zero, false
	}
	return c.val, true
}

// ContextWithSpan attaches a span context.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return &valueCtx[SpanContext]{ctx, ctxKeySpan, sc}
}

// SpanFromContext returns the attached span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := fromContext[SpanContext](ctx, ctxKeySpan)
	return sc, ok && sc.Valid()
}

// ContextWithRequestID attaches a per-request ID.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return &valueCtx[string]{ctx, ctxKeyRequestID, id}
}

// RequestIDFromContext returns the attached request ID ("" if none).
func RequestIDFromContext(ctx context.Context) string {
	id, _ := fromContext[string](ctx, ctxKeyRequestID)
	return id
}

// NewRequestID mints a 16-hex-digit random request ID: one allocation, the
// string.
func NewRequestID() string {
	var b [8]byte
	var h [16]byte
	mustRandom(b[:])
	hex.Encode(h[:], b[:])
	return string(h[:])
}
