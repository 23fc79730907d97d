package obs

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpan()
	if !sc.Valid() {
		t.Fatal("NewSpan should be valid")
	}
	header := sc.Traceparent()
	if len(header) != 55 || !strings.HasPrefix(header, "00-") {
		t.Fatalf("header = %q", header)
	}
	back, ok := ParseTraceparent(header)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", header)
	}
	if back != sc {
		t.Errorf("round trip: got %+v, want %+v", back, sc)
	}
}

func TestChildKeepsTraceID(t *testing.T) {
	root := NewSpan()
	child := root.Child()
	if child.TraceID != root.TraceID {
		t.Error("child must keep the trace ID")
	}
	if child.SpanID == root.SpanID {
		t.Error("child must get a fresh span ID")
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("example header should parse: %q", valid)
	}
	bad := []string{
		"",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",      // missing flags
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // forbidden version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",   // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",   // zero span id
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x", // trailing data on version 00
		"00-ZZf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // non-hex
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) should fail", h)
		}
	}
}

func TestContextCarriage(t *testing.T) {
	ctx := context.Background()
	if _, ok := SpanFromContext(ctx); ok {
		t.Error("empty context should carry no span")
	}
	sc := NewSpan()
	ctx = &SpanNode{Context: ctx, SpanContext: sc, Server: true, RequestID: "req-1"}
	got, ok := SpanFromContext(ctx)
	if !ok || got != sc {
		t.Errorf("SpanFromContext = %+v, %v", got, ok)
	}
	if id := RequestIDFromContext(ctx); id != "req-1" {
		t.Errorf("RequestIDFromContext = %q", id)
	}
	// A span below the server span answers its request's ID; a span
	// context alone answers none.
	if id := RequestIDFromContext(ContextWithSpan(ctx, sc.Child())); id != "req-1" {
		t.Errorf("RequestIDFromContext under a child span = %q", id)
	}
	if id := RequestIDFromContext(ContextWithSpan(context.Background(), sc)); id != "" {
		t.Errorf("RequestIDFromContext without a server span = %q", id)
	}
}

func TestLoggerStampsTraceAttrs(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelDebug, "test-svc")
	sc := NewSpan()
	ctx := &SpanNode{Context: context.Background(), SpanContext: sc, Server: true, RequestID: "req-42"}
	logger.InfoContext(ctx, "hello", slog.Int("n", 1))

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	if line["trace_id"] != sc.TraceIDString() {
		t.Errorf("trace_id = %v, want %s", line["trace_id"], sc.TraceIDString())
	}
	if line["span_id"] != sc.SpanIDString() {
		t.Errorf("span_id = %v, want %s", line["span_id"], sc.SpanIDString())
	}
	if line["request_id"] != "req-42" {
		t.Errorf("request_id = %v", line["request_id"])
	}
	if line["service"] != "test-svc" {
		t.Errorf("service = %v", line["service"])
	}
}

func TestLoggerWithoutContextAttrs(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelInfo, "svc")
	logger.Info("plain")
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if _, has := line["trace_id"]; has {
		t.Error("no trace in context: line must not carry trace_id")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("chatty"); err == nil {
		t.Error("unknown level should error")
	}
}

// TestNewRequestIDUnique: a request that carried no ID is given its server
// span's, 16 hex digits, so two requests never share one.
func TestNewRequestIDUnique(t *testing.T) {
	mint := func() string {
		return RequestIDFromContext(&SpanNode{Context: context.Background(), SpanContext: NewSpan(), Server: true})
	}
	a, b := mint(), mint()
	if a == b || len(a) != 16 {
		t.Errorf("request ids: %q, %q", a, b)
	}
	if _, err := hex.DecodeString(a); err != nil {
		t.Errorf("request id %q is not hex: %v", a, err)
	}
}
