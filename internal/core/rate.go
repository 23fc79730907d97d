package core

import (
	"sync"
	"time"
)

// rateEstimator estimates a byte rate (bytes/second) from discrete arrival
// events using an exponentially weighted moving average over fixed windows.
// The broker uses two estimators per result cache: one for the arrival rate
// lambda_i (bytes of new results added) and one for the consumption rate
// eta_i (bytes leaving because all attached subscribers retrieved them).
// Their clamped difference rho_i = max(0, lambda_i - eta_i) drives the TTL
// computation of Section IV-B.
//
// rateEstimator works in virtual time (time.Duration offsets), so the same
// code serves the live broker (wall-clock offsets) and the simulator.
// It is safe for concurrent use.
type rateEstimator struct {
	mu sync.Mutex

	window time.Duration // averaging window
	alpha  float64       // EWMA smoothing factor in (0, 1]

	windowStart time.Duration
	windowBytes float64
	rate        float64 // bytes per second
	initialized bool
}

// newRateEstimator returns an estimator that closes a window every window
// duration and folds it into an EWMA with smoothing factor alpha. A larger
// alpha adapts faster; the paper's broker recomputes TTLs "every 5 minutes"
// from moving averages, for which window=30s, alpha=0.3 works well.
func newRateEstimator(window time.Duration, alpha float64) *rateEstimator {
	if window <= 0 {
		window = 30 * time.Second
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &rateEstimator{window: window, alpha: alpha}
}

// Observe records that n bytes passed at virtual time at. Observations must
// arrive with non-decreasing timestamps; stale timestamps are folded into
// the current window.
func (r *rateEstimator) Observe(at time.Duration, n float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rollWindows(at)
	r.windowBytes += n
}

// Rate returns the estimated rate in bytes/second as of virtual time at.
func (r *rateEstimator) Rate(at time.Duration) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rollWindows(at)
	if !r.initialized {
		// Mid-first-window: report the raw partial rate so early TTL
		// computations see something rather than zero.
		elapsed := (at - r.windowStart).Seconds()
		if elapsed <= 0 {
			return 0
		}
		return r.windowBytes / elapsed
	}
	return r.rate
}

// rollWindows folds every completed window into the EWMA. Caller holds mu.
func (r *rateEstimator) rollWindows(at time.Duration) {
	if at < r.windowStart {
		return
	}
	for at-r.windowStart >= r.window {
		obs := r.windowBytes / r.window.Seconds()
		if !r.initialized {
			r.rate = obs
			r.initialized = true
		} else {
			r.rate = r.alpha*obs + (1-r.alpha)*r.rate
		}
		r.windowBytes = 0
		r.windowStart += r.window
	}
}
