package httpx

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gobad/internal/obs"
)

// RetryStats tallies a Retryer's lifetime work; one bundle may be shared by
// several Retryers (e.g. every client of one process) and exported on
// /metrics via Collector.
type RetryStats struct {
	// Attempts counts every executed attempt, first tries included.
	Attempts atomic.Uint64
	// Retries counts attempts beyond the first.
	Retries atomic.Uint64
	// GiveUps counts operations abandoned after exhausting the budget,
	// hitting a non-retryable error past the first attempt, or running out
	// of context deadline.
	GiveUps atomic.Uint64
}

// Collector exports the retry tallies as counter families.
func (s *RetryStats) Collector() obs.Collector {
	return obs.CollectorFunc(func(emit func(obs.Family)) {
		emit(obs.Family{Name: "bad_retry_attempts_total", Help: "HTTP attempts executed, first tries included.",
			Type: obs.CounterType, Points: []obs.Point{{Value: float64(s.Attempts.Load())}}})
		emit(obs.Family{Name: "bad_retry_retries_total", Help: "HTTP attempts beyond the first (backoff retries).",
			Type: obs.CounterType, Points: []obs.Point{{Value: float64(s.Retries.Load())}}})
		emit(obs.Family{Name: "bad_retry_giveups_total", Help: "Operations abandoned after exhausting the retry budget.",
			Type: obs.CounterType, Points: []obs.Point{{Value: float64(s.GiveUps.Load())}}})
	})
}

// Retryer re-runs failed operations with capped exponential backoff and full
// jitter (delay = rand * min(MaxDelay, BaseDelay<<attempt)). It retries only
// errors Retryable reports as transient — notably the v1 error envelope's
// retryable flag — and it honors the server's Retry-After hint as a floor
// under the computed delay. The zero value retries nothing.
//
// Rand and Sleep are injectable so tests drive the schedule with a seeded
// source and a virtual clock (no wall-clock sleeps). A Retryer is safe for
// concurrent use.
type Retryer struct {
	// MaxAttempts bounds total attempts (first try included); <= 1 means
	// no retries.
	MaxAttempts int
	// BaseDelay seeds the exponential schedule; MaxDelay caps it.
	BaseDelay, MaxDelay time.Duration
	// Rand returns a uniform sample from [0, 1) for the full jitter; nil
	// uses a private seeded source.
	Rand func() float64
	// Sleep waits out a backoff delay, returning early with ctx.Err() when
	// the context is cancelled. nil uses a real timer.
	Sleep func(ctx context.Context, d time.Duration) error
	// Classify overrides retryability classification; nil uses Retryable.
	Classify func(error) bool
	// Stats receives attempt tallies; optional.
	Stats *RetryStats

	randMu      sync.Mutex
	defaultRand *rand.Rand
}

// Retryable classifies an error as transient: the v1 envelope's retryable
// flag for *StatusError, false for context cancellation/deadline and for an
// open circuit breaker, true for everything else (transport-level failures —
// refused connections, resets, timeouts — are worth one more try against a
// flaky link).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrBreakerOpen) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Retryable
	}
	return true
}

// RetryableEnvelopeOnly is a Classify for non-idempotent requests (POSTs
// that mutate): transport errors are NOT retried — the request may have been
// applied before the connection died — but an envelope that explicitly says
// retryable is, because the server vouches a repeat is safe.
func RetryableEnvelopeOnly(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Retryable
	}
	return false
}

// Do runs op, retrying transient failures per the configured schedule. It
// returns nil on the first success, the last error when attempts are
// exhausted or the error is not retryable, and stops early — without
// sleeping — when the backoff would outlive the context's deadline.
func (r *Retryer) Do(ctx context.Context, op func(ctx context.Context) error) error {
	attempts := r.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	classify := r.Classify
	if classify == nil {
		classify = Retryable
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && r.Stats != nil {
			r.Stats.Retries.Add(1)
		}
		if r.Stats != nil {
			r.Stats.Attempts.Add(1)
		}
		if err = op(ctx); err == nil {
			return nil
		}
		if !classify(err) {
			if attempt > 0 && r.Stats != nil {
				r.Stats.GiveUps.Add(1)
			}
			return err
		}
		if attempt == attempts-1 {
			break
		}
		d := r.backoff(attempt, err)
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < d {
			// The wait would outlive the caller's deadline; surface the
			// last real error rather than burning the remaining budget.
			if r.Stats != nil {
				r.Stats.GiveUps.Add(1)
			}
			return err
		}
		if serr := r.sleep(ctx, d); serr != nil {
			return err
		}
	}
	if r.Stats != nil {
		r.Stats.GiveUps.Add(1)
	}
	return err
}

// backoff computes the delay before retry number attempt+1: full jitter over
// the capped exponential envelope, floored by the server's Retry-After hint.
func (r *Retryer) backoff(attempt int, err error) time.Duration {
	ceil := r.BaseDelay << uint(attempt)
	if r.MaxDelay > 0 && ceil > r.MaxDelay {
		ceil = r.MaxDelay
	}
	if ceil < 0 { // shift overflow
		ceil = r.MaxDelay
	}
	d := time.Duration(r.rand() * float64(ceil))
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > d {
		d = se.RetryAfter
	}
	return d
}

func (r *Retryer) rand() float64 {
	if r.Rand != nil {
		return r.Rand()
	}
	r.randMu.Lock()
	defer r.randMu.Unlock()
	if r.defaultRand == nil {
		r.defaultRand = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return r.defaultRand.Float64()
}

func (r *Retryer) sleep(ctx context.Context, d time.Duration) error {
	if r.Sleep != nil {
		return r.Sleep(ctx, d)
	}
	return Sleep(ctx, d)
}

// Sleep waits for d or until ctx is done, whichever is first, and reports
// ctx's error in the second case. It is the default sleeper behind every
// injectable backoff in the tree.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
