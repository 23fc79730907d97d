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

// TraceIDString returns the 32-hex-digit trace ID: one allocation, the
// string.
func (sc SpanContext) TraceIDString() string {
	var h [32]byte
	hex.Encode(h[:], sc.TraceID[:])
	return string(h[:])
}

// SpanIDString returns the 16-hex-digit span ID: one allocation, the
// string.
func (sc SpanContext) SpanIDString() string {
	var h [16]byte
	hex.Encode(h[:], sc.SpanID[:])
	return string(h[:])
}

// Traceparent renders the header value (version 00).
func (sc SpanContext) Traceparent() string {
	return string(sc.AppendTraceparent(make([]byte, 0, 55)))
}

// AppendTraceparent appends the header value (version 00) to dst: 55
// bytes of hex digits and dashes, which a JSON string holds unescaped.
func (sc SpanContext) AppendTraceparent(dst []byte) []byte {
	dst = append(dst, "00-"...)
	dst = hex.AppendEncode(dst, sc.TraceID[:])
	dst = append(dst, '-')
	dst = hex.AppendEncode(dst, sc.SpanID[:])
	dst = append(dst, '-')
	return hex.AppendEncode(dst, []byte{sc.Flags})
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

// SpanNode is the context node that carries a span context: a recorded
// span (internal/obs/span) embeds one, so a started span is its own
// context and costs one allocation, and ContextWithSpan makes one alone
// for a span context nothing records. Value answers the node's keys with
// the node itself, a pointer, so reading a value back boxes nothing.
//
// The fields are set before the node is shared and only read after: any
// goroutine may use the node as a context while the span's owner sets
// its attributes and ends it.
type SpanNode struct {
	context.Context // the parent
	SpanContext     SpanContext
	// Server marks the span that serves a request: the node answers
	// RequestIDFromContext with RequestID, the ID the request carried, or
	// when it carried none with the span's own ID in hex — 16 digits,
	// formatted only when read.
	Server    bool
	RequestID string
}

// Value answers the span key, the request-ID key of a server span, and
// defers every other key to the parent.
func (n *SpanNode) Value(key any) any {
	switch key {
	case ctxKeySpan:
		return n
	case ctxKeyRequestID:
		if n.Server {
			return n
		}
	}
	return n.Context.Value(key)
}

// ContextWithSpan attaches a span context.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return &SpanNode{Context: ctx, SpanContext: sc}
}

// SpanFromContext returns the attached span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	n, ok := ctx.Value(ctxKeySpan).(*SpanNode)
	if !ok {
		return SpanContext{}, false
	}
	return n.SpanContext, n.SpanContext.Valid()
}

// RequestIDFromContext returns the ID of the request ctx serves ("" if
// none): the one it carried, else its server span's ID.
func RequestIDFromContext(ctx context.Context) string {
	n, ok := ctx.Value(ctxKeyRequestID).(*SpanNode)
	if !ok {
		return ""
	}
	if n.RequestID != "" {
		return n.RequestID
	}
	return n.SpanContext.SpanIDString()
}
