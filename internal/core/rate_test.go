package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRateEstimatorSteadyRate(t *testing.T) {
	r := newRateEstimator(10*time.Second, 0.5)
	// 100 bytes every second for 100 seconds => 100 B/s.
	for i := 0; i <= 100; i++ {
		r.Observe(time.Duration(i)*time.Second, 100)
	}
	got := r.Rate(100 * time.Second)
	if math.Abs(got-100) > 5 {
		t.Errorf("Rate = %v, want ~100", got)
	}
}

func TestRateEstimatorEarlyPartialWindow(t *testing.T) {
	r := newRateEstimator(time.Minute, 0.3)
	r.Observe(0, 600)
	got := r.Rate(10 * time.Second) // 600 bytes over 10s = 60 B/s raw
	if math.Abs(got-60) > 1e-9 {
		t.Errorf("early Rate = %v, want 60", got)
	}
}

func TestRateEstimatorDecaysToZero(t *testing.T) {
	r := newRateEstimator(time.Second, 0.5)
	r.Observe(0, 1000)
	// after many idle windows, the rate should decay to near zero
	got := r.Rate(60 * time.Second)
	if got > 1 {
		t.Errorf("Rate after idle = %v, want < 1", got)
	}
}

func TestRateEstimatorDefensiveDefaults(t *testing.T) {
	r := newRateEstimator(0, -1) // invalid args take defaults
	r.Observe(0, 30)
	if got := r.Rate(time.Second); got <= 0 {
		t.Errorf("Rate = %v, want > 0", got)
	}
}

func TestRateEstimatorNonNegativeProperty(t *testing.T) {
	f := func(deltas []uint16, amounts []uint16) bool {
		r := newRateEstimator(5*time.Second, 0.4)
		var at time.Duration
		for i := range deltas {
			at += time.Duration(deltas[i]) * time.Millisecond
			amt := 0.0
			if i < len(amounts) {
				amt = float64(amounts[i])
			}
			r.Observe(at, amt)
			if r.Rate(at) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
