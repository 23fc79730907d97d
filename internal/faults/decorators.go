package faults

import (
	"context"
	"sync/atomic"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/core"
	"gobad/internal/httpx"
)

// applyInProcess decides and applies one fault for an in-process call.
// Status faults surface as *httpx.StatusError — the same shape DoJSON
// produces when a real server writes the v1 envelope — so the retry and
// stale-serve paths can't tell injection from the real thing.
func (in *Injector) applyInProcess(ctx context.Context, target string) error {
	f := in.Decide(target)
	if f.None() {
		return nil
	}
	if f.Latency > 0 {
		if err := in.sleep(ctx, f.Latency); err != nil {
			return err
		}
	}
	if f.Kind == KindStatus {
		return &httpx.StatusError{
			Status:    f.Status,
			Code:      httpx.CodeForStatus(f.Status),
			Message:   "injected fault",
			Retryable: f.Status == 429 || f.Status >= 500,
		}
	}
	return f.Err()
}

// Fetcher decorates a core.Fetcher: each Fetch first consults the injector
// under the given target name, failing or delaying before (ever) reaching
// next.
func Fetcher(in *Injector, target string, next core.Fetcher) core.Fetcher {
	return core.FetcherFunc(func(ctx context.Context, cacheID string, from, to time.Duration, inclusiveTo bool) ([]*core.Object, error) {
		if err := in.applyInProcess(ctx, target); err != nil {
			return nil, err
		}
		return next.Fetch(ctx, cacheID, from, to, inclusiveTo)
	})
}

// Backend mirrors broker.Backend structurally (declared here so faults does
// not import broker): the data-cluster surface the broker depends on.
type Backend interface {
	Subscribe(channel string, params []any, callback string) (string, error)
	Unsubscribe(subID string) error
	ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error)
	LatestTimestamp(subID string) (time.Duration, error)
}

// FaultyBackend injects faults in front of a Backend, one target per
// operation: prefix+".subscribe", ".unsubscribe", ".results", ".latest".
type FaultyBackend struct {
	in     *Injector
	prefix string
	next   Backend
}

// WrapBackend decorates next; prefix namespaces the per-method targets
// (typically "cluster").
func WrapBackend(in *Injector, prefix string, next Backend) *FaultyBackend {
	return &FaultyBackend{in: in, prefix: prefix, next: next}
}

// Subscribe implements Backend.
func (b *FaultyBackend) Subscribe(channel string, params []any, callback string) (string, error) {
	if err := b.in.applyInProcess(context.Background(), b.prefix+".subscribe"); err != nil {
		return "", err
	}
	return b.next.Subscribe(channel, params, callback)
}

// Unsubscribe implements Backend.
func (b *FaultyBackend) Unsubscribe(subID string) error {
	if err := b.in.applyInProcess(context.Background(), b.prefix+".unsubscribe"); err != nil {
		return err
	}
	return b.next.Unsubscribe(subID)
}

// ResultsContext implements Backend.
func (b *FaultyBackend) ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error) {
	if err := b.in.applyInProcess(ctx, b.prefix+".results"); err != nil {
		return nil, err
	}
	return b.next.ResultsContext(ctx, subID, from, to, inclusiveTo)
}

// LatestTimestamp implements Backend.
func (b *FaultyBackend) LatestTimestamp(subID string) (time.Duration, error) {
	if err := b.in.applyInProcess(context.Background(), b.prefix+".latest"); err != nil {
		return 0, err
	}
	return b.next.LatestTimestamp(subID)
}

// CountingBackend counts calls per Backend method on the way through —
// chaos tests wrap the cluster with it to prove claims like "a warm
// handoff keeps the successor's range fetches under N". Counters are
// atomics; read them with the accessor methods.
type CountingBackend struct {
	next                              Backend
	subscribes, unsubscribes, results atomic.Int64
}

// Count decorates next with per-method call counters.
func Count(next Backend) *CountingBackend {
	return &CountingBackend{next: next}
}

// Subscribe implements Backend.
func (b *CountingBackend) Subscribe(channel string, params []any, callback string) (string, error) {
	b.subscribes.Add(1)
	return b.next.Subscribe(channel, params, callback)
}

// Unsubscribe implements Backend.
func (b *CountingBackend) Unsubscribe(subID string) error {
	b.unsubscribes.Add(1)
	return b.next.Unsubscribe(subID)
}

// ResultsContext implements Backend.
func (b *CountingBackend) ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error) {
	b.results.Add(1)
	return b.next.ResultsContext(ctx, subID, from, to, inclusiveTo)
}

// LatestTimestamp implements Backend (uncounted: nothing asserts on it).
func (b *CountingBackend) LatestTimestamp(subID string) (time.Duration, error) {
	return b.next.LatestTimestamp(subID)
}

// Subscribes returns the Subscribe call count.
func (b *CountingBackend) Subscribes() int64 { return b.subscribes.Load() }

// Unsubscribes returns the Unsubscribe call count.
func (b *CountingBackend) Unsubscribes() int64 { return b.unsubscribes.Load() }

// ResultFetches returns the results call count.
func (b *CountingBackend) ResultFetches() int64 { return b.results.Load() }
