// Package workload generates the synthetic workloads used in the paper's
// evaluation: lognormal subscriber ON/OFF session durations, Poisson result
// arrivals per channel, uniform result-object sizes, Zipfian channel
// popularity (the prototype experiment in Section VI uses a "Zipfian
// subscription model"), and the city-emergency channel catalog of Table III.
//
// All randomness flows through explicit *rand.Rand streams so that
// experiments are reproducible and adding a new concern does not perturb
// the draws of an existing one.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a one-dimensional distribution that can be sampled with an
// explicit random stream.
type Dist interface {
	// Sample draws one value.
	Sample(rng *rand.Rand) float64
	// Mean returns the distribution's analytic mean.
	Mean() float64
	// String describes the distribution, e.g. "Lognormal(mu=1, sigma=2)".
	String() string
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

var _ Dist = Uniform{}

// Sample draws uniformly from [Lo, Hi].
func (u Uniform) Sample(rng *rand.Rand) float64 {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + rng.Float64()*(u.Hi-u.Lo)
}

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("Uniform(%g, %g)", u.Lo, u.Hi) }

// Lognormal is the lognormal distribution parameterized by the mean Mu and
// standard deviation Sigma of the underlying normal. The paper draws
// subscriber ON and OFF durations from lognormals (following measurement
// studies of user session behaviour, refs [29], [30]).
type Lognormal struct {
	Mu, Sigma float64
}

var _ Dist = Lognormal{}

// Sample draws exp(N(Mu, Sigma^2)).
func (l Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Mean returns exp(Mu + Sigma^2/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

func (l Lognormal) String() string { return fmt.Sprintf("Lognormal(%g, %g)", l.Mu, l.Sigma) }

// LognormalFromMoments returns the Lognormal whose *distribution* mean and
// standard deviation match the given values. The paper's Table II reports
// subscriber ON/OFF durations by their moments (e.g. ON duration with mean
// ~20 min); this helper converts them to (mu, sigma) of the underlying
// normal.
func LognormalFromMoments(mean, std float64) Lognormal {
	if mean <= 0 {
		return Lognormal{Mu: 0, Sigma: 0}
	}
	v := std * std
	sigma2 := math.Log(1 + v/(mean*mean))
	return Lognormal{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}
}

// Exponential is the exponential distribution with the given Rate (lambda).
// Inter-arrival times of a Poisson process are exponential.
type Exponential struct {
	Rate float64
}

var _ Dist = Exponential{}

// Sample draws from Exp(Rate).
func (e Exponential) Sample(rng *rand.Rand) float64 {
	if e.Rate <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / e.Rate
}

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 {
	if e.Rate <= 0 {
		return math.Inf(1)
	}
	return 1 / e.Rate
}

func (e Exponential) String() string { return fmt.Sprintf("Exponential(rate=%g)", e.Rate) }

// Constant is the degenerate distribution that always returns Value.
type Constant struct {
	Value float64
}

var _ Dist = Constant{}

// Sample returns Value.
func (c Constant) Sample(*rand.Rand) float64 { return c.Value }

// Mean returns Value.
func (c Constant) Mean() float64 { return c.Value }

func (c Constant) String() string { return fmt.Sprintf("Constant(%g)", c.Value) }

// Zipf draws integers in [0, N) with probability proportional to
// 1/(rank+1)^S. It is used to pick which channel a subscriber subscribes
// to: a few channels are very popular, most are rare. Zipf precomputes the
// cumulative mass so sampling is O(log N) by binary search and independent
// of the stdlib's rand.Zipf state (which cannot be seeded per-draw-stream
// as flexibly).
type Zipf struct {
	n   int
	s   float64
	cdf []float64
}

// NewZipf returns a Zipf distribution over n items with exponent s > 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: Zipf needs n > 0, got %d", n)
	}
	if s <= 0 {
		return nil, fmt.Errorf("workload: Zipf needs s > 0, got %g", s)
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{n: n, s: s, cdf: cdf}, nil
}

// N returns the number of items.
func (z *Zipf) N() int { return z.n }

// S returns the exponent.
func (z *Zipf) S() float64 { return z.s }

// Sample draws a rank in [0, N); rank 0 is the most popular.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability mass of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= z.n {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// DeriveSeed returns a deterministic child seed for (master, concern, index).
func DeriveSeed(master int64, concern string, index int) int64 {
	h := master
	for _, r := range concern {
		h = h*1000003 + int64(r)
	}
	return h*1000003 + int64(index)
}
