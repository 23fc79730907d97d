// Package faults is the deterministic fault-injection layer behind the
// chaos-test harness: a declarative Plan describes which calls against which
// targets fail and how (error, HTTP status, added latency, timeout,
// partition), selected by call count, seeded probability and virtual-time
// windows. One plan drives every level of the stack — an http.RoundTripper
// wrapper for real-socket integration tests, a core.Fetcher decorator for
// the cache manager, and a backend decorator for the broker — so the same
// failure scenario is reproducible in unit tests, the simulator and a live
// two-process rig, without real sockets or wall-clock sleeps.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gobad/internal/httpx"
)

// Kind enumerates the injectable fault classes.
type Kind string

// The fault kinds a Rule can inject.
const (
	// KindError fails the call with a generic injected transport error.
	KindError Kind = "error"
	// KindStatus fails the call with an HTTP status (RoundTripper
	// synthesizes a v1 error envelope; in-process decorators return a
	// matching httpx.StatusError).
	KindStatus Kind = "status"
	// KindLatency delays the call, then lets it proceed.
	KindLatency Kind = "latency"
	// KindTimeout fails the call with a timeout error after an optional
	// delay.
	KindTimeout Kind = "timeout"
	// KindPartition fails the call as if the network were cut
	// (connection refused; the request never reaches the target).
	KindPartition Kind = "partition"
)

// Injected faults surface as (wrapped) sentinel errors so tests and
// resilience code can classify them.
var (
	// ErrInjected is the generic KindError failure.
	ErrInjected = errors.New("faults: injected error")
	// ErrTimeout is the KindTimeout failure; Timeout() reports true so it
	// satisfies net.Error-style checks.
	ErrTimeout error = &timeoutError{}
	// ErrPartition is the KindPartition failure.
	ErrPartition = errors.New("faults: network partition")
)

type timeoutError struct{}

func (*timeoutError) Error() string   { return "faults: injected timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// Rule is one injection clause: when a call against Target falls inside the
// rule's call-count and virtual-time windows (and wins the probability coin
// when one is set), the fault fires. Rules are evaluated in plan order;
// the first match wins.
type Rule struct {
	// Target selects calls: a call matches when its target name contains
	// this string ("" matches every call). In-process decorators use
	// logical names like "cluster.results"; the RoundTripper matches
	// against "host/path".
	Target string `json:"target"`
	// Kind is the fault class.
	Kind Kind `json:"kind"`
	// Status is the HTTP status for KindStatus (default 503).
	Status int `json:"status,omitempty"`
	// Latency is the injected delay for KindLatency, and the optional
	// delay before a KindTimeout fires.
	Latency time.Duration `json:"latency_ns,omitempty"`
	// FromCall/ToCall bound the per-target call indices (1-based,
	// inclusive) the rule applies to; 0 means unbounded. A "5xx burst"
	// is FromCall: 1, ToCall: 4.
	FromCall int `json:"from_call,omitempty"`
	ToCall   int `json:"to_call,omitempty"`
	// Probability fires the rule on a seeded coin when in (0, 1);
	// 0 (and >= 1) means always.
	Probability float64 `json:"probability,omitempty"`
	// From/Until bound the rule to a virtual-time window of the
	// injector's clock; zero Until means forever. "Kill the cluster at
	// t=10m" is From: 10m.
	From  time.Duration `json:"from_ns,omitempty"`
	Until time.Duration `json:"until_ns,omitempty"`
}

// active reports whether the rule applies to the call-th call (1-based) at
// virtual time now. The probability coin is NOT consulted here.
func (r *Rule) active(call int, now time.Duration) bool {
	if r.FromCall > 0 && call < r.FromCall {
		return false
	}
	if r.ToCall > 0 && call > r.ToCall {
		return false
	}
	if now < r.From {
		return false
	}
	if r.Until > 0 && now >= r.Until {
		return false
	}
	return true
}

// Plan is a named, seeded set of rules — the unit tests, the simulator and
// badsim -fault-plan all consume the same shape.
type Plan struct {
	// Name labels the plan in logs and test output.
	Name string `json:"name,omitempty"`
	// Seed drives the probability coins; equal seeds give identical
	// injection sequences.
	Seed int64 `json:"seed,omitempty"`
	// Rules are evaluated in order; the first matching rule fires.
	Rules []Rule `json:"rules"`
}

// Fault is one decided injection (Kind "" means no fault).
type Fault struct {
	Kind    Kind
	Status  int
	Latency time.Duration
}

// None reports whether no fault was decided.
func (f Fault) None() bool { return f.Kind == "" }

// Err renders the fault's error (nil for none/latency-only).
func (f Fault) Err() error {
	switch f.Kind {
	case KindError:
		return ErrInjected
	case KindStatus:
		return fmt.Errorf("faults: injected HTTP %d: %w", f.Status, ErrInjected)
	case KindTimeout:
		return ErrTimeout
	case KindPartition:
		return ErrPartition
	}
	return nil
}

// Option configures an Injector.
type Option func(*Injector)

// WithClock sets the virtual clock the rules' time windows are evaluated
// against; the default is wall time since the injector was created.
func WithClock(clock func() time.Duration) Option {
	return func(in *Injector) {
		if clock != nil {
			in.clock = clock
		}
	}
}

// WithSleep sets how latency faults wait (tests and the simulator pass a
// virtual or no-op sleeper); the default is a real context-aware timer.
func WithSleep(sleep func(ctx context.Context, d time.Duration) error) Option {
	return func(in *Injector) {
		if sleep != nil {
			in.sleep = sleep
		}
	}
}

// Injector evaluates a Plan call by call. It keeps one call counter per
// target and one seeded random stream for the probability coins, so the
// decision sequence is a pure function of (plan, call order) — the property
// the deterministic chaos tests rely on. An Injector is safe for concurrent
// use; concurrent tests must impose their own call order to stay
// deterministic.
type Injector struct {
	plan  Plan
	clock func() time.Duration
	sleep func(ctx context.Context, d time.Duration) error

	mu     sync.Mutex
	rng    *rand.Rand
	calls  map[string]int
	nfault map[Kind]uint64
	total  uint64
}

// NewInjector compiles a plan.
func NewInjector(plan Plan, opts ...Option) *Injector {
	in := &Injector{
		plan:   plan,
		rng:    rand.New(rand.NewSource(plan.Seed)),
		calls:  make(map[string]int),
		nfault: make(map[Kind]uint64),
	}
	epoch := time.Now()
	in.clock = func() time.Duration { return time.Since(epoch) }
	in.sleep = httpx.Sleep
	for _, opt := range opts {
		opt(in)
	}
	return in
}

// Decide counts one call against target and returns the fault to inject,
// if any.
func (in *Injector) Decide(target string) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls[target]++
	call := in.calls[target]
	now := in.clock()
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if r.Target != "" && !contains(target, r.Target) {
			continue
		}
		if !r.active(call, now) {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 && in.rng.Float64() >= r.Probability {
			continue
		}
		f := Fault{Kind: r.Kind, Status: r.Status, Latency: r.Latency}
		if f.Kind == KindStatus && f.Status == 0 {
			f.Status = 503
		}
		in.nfault[f.Kind]++
		in.total++
		return f
	}
	return Fault{}
}

// Apply decides and applies a fault for one call: latency faults wait on the
// injected sleeper, error-class faults return their error (after any
// configured delay for timeouts). A nil return means the call proceeds.
func (in *Injector) Apply(ctx context.Context, target string) error {
	f := in.Decide(target)
	if f.None() {
		return nil
	}
	if f.Latency > 0 {
		if err := in.sleep(ctx, f.Latency); err != nil {
			return err
		}
	}
	return f.Err()
}

// Calls returns how many calls target has seen.
func (in *Injector) Calls(target string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[target]
}

// Injected returns how many faults fired, total and per kind.
func (in *Injector) Injected() (total uint64, perKind map[Kind]uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	perKind = make(map[Kind]uint64, len(in.nfault))
	for k, v := range in.nfault {
		perKind[k] = v
	}
	return in.total, perKind
}

// contains is strings.Contains without the import churn at every call site.
func contains(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
