package faults

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/httpx"
)

// TestInjectorCallRange: a rule bounded to calls 2..3 fires exactly there.
func TestInjectorCallRange(t *testing.T) {
	in := NewInjector(Plan{Rules: []Rule{
		{Target: "cluster", Kind: KindError, FromCall: 2, ToCall: 3},
	}})
	want := []bool{false, true, true, false, false}
	for i, w := range want {
		f := in.Decide("cluster.results")
		if got := !f.None(); got != w {
			t.Errorf("call %d: injected = %v, want %v", i+1, got, w)
		}
	}
	if in.Calls("cluster.results") != 5 {
		t.Errorf("calls = %d, want 5", in.Calls("cluster.results"))
	}
	total, perKind := in.Injected()
	if total != 2 || perKind[KindError] != 2 {
		t.Errorf("injected = %d/%v, want 2 errors", total, perKind)
	}
}

// TestInjectorTargetMatch: substring matching and per-target call counters.
func TestInjectorTargetMatch(t *testing.T) {
	in := NewInjector(Plan{Rules: []Rule{
		{Target: "results", Kind: KindPartition},
	}})
	if f := in.Decide("cluster.subscribe"); !f.None() {
		t.Error("non-matching target must not inject")
	}
	if f := in.Decide("cluster.results"); f.Kind != KindPartition {
		t.Errorf("kind = %q, want partition", f.Kind)
	}
	// The rule with an empty target matches everything.
	all := NewInjector(Plan{Rules: []Rule{{Kind: KindError}}})
	if f := all.Decide("anything"); f.None() {
		t.Error("empty target must match every call")
	}
}

// TestInjectorProbabilityDeterminism: equal seeds give identical decision
// sequences; the empirical rate tracks the configured probability.
func TestInjectorProbabilityDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{{Kind: KindError, Probability: 0.3}}}
	run := func() []bool {
		in := NewInjector(plan)
		out := make([]bool, 200)
		for i := range out {
			out[i] = !in.Decide("x").None()
		}
		return out
	}
	a, b := run(), run()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identically-seeded runs", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits < 40 || hits > 80 {
		t.Errorf("hits = %d/200, want ~60 for p=0.3", hits)
	}
	// A different seed gives a different sequence.
	other := NewInjector(Plan{Seed: 7, Rules: plan.Rules})
	diff := false
	for i := 0; i < 200; i++ {
		if (!other.Decide("x").None()) != a[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical sequences")
	}
}

// TestInjectorTimeWindow: rules gate on the injected virtual clock.
func TestInjectorTimeWindow(t *testing.T) {
	var now time.Duration
	in := NewInjector(Plan{Rules: []Rule{
		{Kind: KindPartition, From: 10 * time.Minute, Until: 20 * time.Minute},
	}}, WithClock(func() time.Duration { return now }))
	if f := in.Decide("x"); !f.None() {
		t.Error("injected before the window opened")
	}
	now = 15 * time.Minute
	if f := in.Decide("x"); f.Kind != KindPartition {
		t.Error("window open: want partition")
	}
	now = 20 * time.Minute
	if f := in.Decide("x"); !f.None() {
		t.Error("injected at the exclusive window end")
	}
}

// TestInjectorFirstRuleWins: rule order is significant.
func TestInjectorFirstRuleWins(t *testing.T) {
	in := NewInjector(Plan{Rules: []Rule{
		{Target: "results", Kind: KindStatus, Status: 429},
		{Kind: KindError},
	}})
	if f := in.Decide("cluster.results"); f.Kind != KindStatus || f.Status != 429 {
		t.Errorf("fault = %+v, want the first matching rule (429)", f)
	}
	if f := in.Decide("cluster.subscribe"); f.Kind != KindError {
		t.Errorf("fault = %+v, want fallthrough to the catch-all rule", f)
	}
}

// TestApplyLatencyUsesInjectedSleep: latency faults go through the virtual
// sleeper — no wall-clock sleeps in tests.
func TestApplyLatencyUsesInjectedSleep(t *testing.T) {
	var slept []time.Duration
	in := NewInjector(Plan{Rules: []Rule{
		{Kind: KindLatency, Latency: 250 * time.Millisecond},
	}}, WithSleep(func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}))
	if err := in.Apply(context.Background(), "x"); err != nil {
		t.Fatalf("latency fault must not error: %v", err)
	}
	if len(slept) != 1 || slept[0] != 250*time.Millisecond {
		t.Errorf("slept = %v, want [250ms]", slept)
	}
}

// TestApplyTimeoutAfterDelay: timeout faults optionally wait first, then
// fail with a Timeout()-true error.
func TestApplyTimeoutAfterDelay(t *testing.T) {
	var slept time.Duration
	in := NewInjector(Plan{Rules: []Rule{
		{Kind: KindTimeout, Latency: time.Second},
	}}, WithSleep(func(_ context.Context, d time.Duration) error {
		slept = d
		return nil
	}))
	err := in.Apply(context.Background(), "x")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	var te interface{ Timeout() bool }
	if !errors.As(err, &te) || !te.Timeout() {
		t.Error("timeout fault must satisfy Timeout() == true")
	}
	if slept != time.Second {
		t.Errorf("slept = %v, want 1s before timing out", slept)
	}
}

// TestParsePlanJSON: the on-disk shape round-trips, including duration
// strings.
func TestParsePlanJSON(t *testing.T) {
	p, err := ParsePlan([]byte(`{
		"name": "cluster-brownout",
		"seed": 99,
		"rules": [
			{"target": "cluster.results", "kind": "status", "status": 503, "from_call": 1, "to_call": 4},
			{"target": "cluster", "kind": "latency", "latency": "150ms", "probability": 0.5},
			{"kind": "partition", "from": "10m", "until": "12m"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "cluster-brownout" || p.Seed != 99 || len(p.Rules) != 3 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Rules[1].Latency != 150*time.Millisecond {
		t.Errorf("latency = %v, want 150ms", p.Rules[1].Latency)
	}
	if p.Rules[2].From != 10*time.Minute || p.Rules[2].Until != 12*time.Minute {
		t.Errorf("window = [%v, %v], want [10m, 12m]", p.Rules[2].From, p.Rules[2].Until)
	}
}

// TestParsePlanRejectsBadInput covers the validation paths.
func TestParsePlanRejectsBadInput(t *testing.T) {
	bad := []string{
		`not json`,
		`{"rules": [{"kind": "explode"}]}`,
		`{"rules": [{"kind": "error", "probability": 1.5}]}`,
		`{"rules": [{"kind": "error", "from_call": 5, "to_call": 2}]}`,
		`{"rules": [{"kind": "latency", "latency": "soon"}]}`,
		`{"rules": [{"kind": "partition", "from": "10m", "until": "5m"}]}`,
	}
	for _, s := range bad {
		if _, err := ParsePlan([]byte(s)); err == nil {
			t.Errorf("ParsePlan(%s) accepted bad input", s)
		}
	}
}

// TestRoundTripperStatus: a status fault synthesizes a v1 envelope the
// client stack decodes into a retryable StatusError.
func TestRoundTripperStatus(t *testing.T) {
	backendHits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backendHits++
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	}))
	defer srv.Close()

	in := NewInjector(Plan{Rules: []Rule{
		{Kind: KindStatus, Status: 503, FromCall: 1, ToCall: 1},
	}})
	client := &http.Client{Transport: &RoundTripper{Injector: in, Base: http.DefaultTransport}}

	var out map[string]string
	err := httpx.DoJSON(client, http.MethodGet, srv.URL, nil, &out)
	var se *httpx.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.Status != 503 || !se.Retryable {
		t.Errorf("StatusError = %+v, want retryable 503", se)
	}
	if backendHits != 0 {
		t.Error("status fault must not reach the backend")
	}

	// Second call passes through.
	if err := httpx.DoJSON(client, http.MethodGet, srv.URL, nil, &out); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if backendHits != 1 || out["ok"] != "yes" {
		t.Errorf("backendHits = %d, out = %v", backendHits, out)
	}
}

// TestRoundTripperPartition: partition faults surface as transport errors
// (wrapped in *url.Error by http.Client) without touching the backend.
func TestRoundTripperPartition(t *testing.T) {
	in := NewInjector(Plan{Rules: []Rule{{Kind: KindPartition}}})
	client := &http.Client{Transport: &RoundTripper{Injector: in}}
	_, err := client.Get("http://203.0.113.1:1/never-dialed")
	if !errors.Is(err, ErrPartition) {
		t.Fatalf("err = %v, want ErrPartition", err)
	}
}

// TestRoundTripperLatency: latency faults wait on the injector's sleeper
// and then let the request through.
func TestRoundTripperLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	var slept time.Duration
	in := NewInjector(Plan{Rules: []Rule{
		{Kind: KindLatency, Latency: 2 * time.Second},
	}}, WithSleep(func(_ context.Context, d time.Duration) error {
		slept = d
		return nil
	}))
	client := &http.Client{Transport: &RoundTripper{Injector: in}}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slept != 2*time.Second {
		t.Errorf("slept = %v, want 2s (virtual)", slept)
	}
}

// TestFetcherDecorator: the core.Fetcher wrapper injects ahead of the real
// fetch and stays transparent otherwise.
func TestFetcherDecorator(t *testing.T) {
	calls := 0
	next := core.FetcherFunc(func(_ context.Context, cacheID string, from, to time.Duration, _ bool) ([]*core.Object, error) {
		calls++
		return []*core.Object{{ID: "o1", Timestamp: from + 1, Size: 10}}, nil
	})
	in := NewInjector(Plan{Rules: []Rule{
		{Target: "cluster.fetch", Kind: KindStatus, Status: 503, FromCall: 1, ToCall: 2},
	}})
	f := Fetcher(in, "cluster.fetch", next)

	for i := 0; i < 2; i++ {
		_, err := f.Fetch(context.Background(), "c1", 0, time.Second, false)
		var se *httpx.StatusError
		if !errors.As(err, &se) || se.Status != 503 {
			t.Fatalf("call %d: err = %v, want injected 503", i+1, err)
		}
	}
	objs, err := f.Fetch(context.Background(), "c1", 0, time.Second, false)
	if err != nil || len(objs) != 1 {
		t.Fatalf("third call: objs = %v, err = %v, want passthrough", objs, err)
	}
	if calls != 1 {
		t.Errorf("backend calls = %d, want 1 (faulted calls never reach it)", calls)
	}
}

// fakeBackend is a minimal in-process Backend for decorator tests.
type fakeBackend struct{ results int }

func (f *fakeBackend) Subscribe(string, []any, string) (string, error) { return "sub1", nil }
func (f *fakeBackend) Unsubscribe(string) error                        { return nil }
func (f *fakeBackend) ResultsContext(context.Context, string, time.Duration, time.Duration, bool) ([]bdms.ResultObject, error) {
	f.results++
	return nil, nil
}
func (f *fakeBackend) LatestTimestamp(string) (time.Duration, error) { return 0, nil }

// TestBackendDecorator exercises per-method targets and the ResultsContext
// passthrough.
func TestBackendDecorator(t *testing.T) {
	next := &fakeBackend{}
	in := NewInjector(Plan{Rules: []Rule{
		{Target: "cluster.results", Kind: KindError},
	}})
	fb := WrapBackend(in, "cluster", next)

	if _, err := fb.Subscribe("ch", nil, "cb"); err != nil {
		t.Fatalf("subscribe should pass: %v", err)
	}
	if _, err := fb.ResultsContext(context.Background(), "sub1", 0, time.Second, false); !errors.Is(err, ErrInjected) {
		t.Fatalf("ResultsContext err = %v, want injected", err)
	}
	if _, err := fb.LatestTimestamp("sub1"); err != nil {
		t.Fatalf("latest should pass: %v", err)
	}
	if next.results != 0 || in.Calls("cluster.results") != 1 {
		t.Errorf("faulted pulls reached the backend %d times over %d decisions, want 0 over 1",
			next.results, in.Calls("cluster.results"))
	}
	// With no fault planned the call passes through, counted.
	counted := Count(next)
	fb2 := WrapBackend(NewInjector(Plan{}), "cluster", counted)
	if _, err := fb2.ResultsContext(context.Background(), "sub1", 0, time.Second, false); err != nil {
		t.Fatal(err)
	}
	if next.results != 1 || counted.ResultFetches() != 1 {
		t.Errorf("results = %d, counted %d, want 1 and 1 (passthrough)", next.results, counted.ResultFetches())
	}
}
