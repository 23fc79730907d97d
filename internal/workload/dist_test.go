package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newRng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestUniformSample(t *testing.T) {
	rng := newRng()
	u := Uniform{Lo: 10, Hi: 20}
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		x := u.Sample(rng)
		if x < 10 || x > 20 {
			t.Fatalf("sample %v out of [10,20]", x)
		}
		sum += x
	}
	if got := sum / n; math.Abs(got-15) > 0.2 {
		t.Errorf("empirical mean = %v, want ~15", got)
	}
	if u.Mean() != 15 {
		t.Errorf("Mean = %v, want 15", u.Mean())
	}
}

func TestUniformDegenerate(t *testing.T) {
	u := Uniform{Lo: 5, Hi: 5}
	if got := u.Sample(newRng()); got != 5 {
		t.Errorf("degenerate sample = %v, want 5", got)
	}
}

func TestLognormalMean(t *testing.T) {
	rng := newRng()
	l := Lognormal{Mu: 1, Sigma: 0.5}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += l.Sample(rng)
	}
	want := l.Mean()
	if got := sum / n; math.Abs(got-want)/want > 0.05 {
		t.Errorf("empirical mean = %v, want ~%v", got, want)
	}
}

func TestLognormalFromMoments(t *testing.T) {
	l := LognormalFromMoments(1200, 900) // 20 min mean, 15 min std
	if got := l.Mean(); math.Abs(got-1200) > 1e-6 {
		t.Errorf("analytic mean = %v, want 1200", got)
	}
	rng := newRng()
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += l.Sample(rng)
	}
	if got := sum / n; math.Abs(got-1200)/1200 > 0.05 {
		t.Errorf("empirical mean = %v, want ~1200", got)
	}
}

func TestLognormalFromMomentsInvalidMean(t *testing.T) {
	l := LognormalFromMoments(-1, 10)
	if l.Sigma != 0 {
		t.Errorf("invalid mean should yield degenerate lognormal, got %+v", l)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := newRng()
	e := Exponential{Rate: 0.1} // mean 10
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += e.Sample(rng)
	}
	if got := sum / n; math.Abs(got-10)/10 > 0.05 {
		t.Errorf("empirical mean = %v, want ~10", got)
	}
}

func TestExponentialZeroRate(t *testing.T) {
	e := Exponential{}
	if !math.IsInf(e.Sample(newRng()), 1) || !math.IsInf(e.Mean(), 1) {
		t.Error("zero-rate exponential should be +Inf")
	}
}

func TestConstant(t *testing.T) {
	c := Constant{Value: 7}
	if c.Sample(nil) != 7 || c.Mean() != 7 {
		t.Error("Constant should always return its value")
	}
}

func TestDistStrings(t *testing.T) {
	for _, d := range []Dist{Uniform{1, 2}, Lognormal{1, 2}, Exponential{3}, Constant{4}} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0, 1) should fail")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("NewZipf(10, 0) should fail")
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := newRng()
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 (%d draws) should beat rank 50 (%d draws)", counts[0], counts[50])
	}
	// Rank-0 mass for Zipf(100, 1) is 1/H(100) ~ 0.1928.
	got := float64(counts[0]) / n
	if math.Abs(got-0.1928) > 0.02 {
		t.Errorf("rank-0 empirical mass = %v, want ~0.193", got)
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z, err := NewZipf(50, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum of probs = %v, want 1", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(50) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
	if z.S() != 0.8 {
		t.Errorf("S = %v, want 0.8", z.S())
	}
}

func TestZipfSampleInRangeProperty(t *testing.T) {
	z, err := NewZipf(17, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if r := z.Sample(rng); r < 0 || r >= 17 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(7, "chan", 3)
	b := DeriveSeed(7, "chan", 3)
	c := DeriveSeed(7, "chan", 4)
	if a != b {
		t.Error("same inputs must give same seed")
	}
	if a == c {
		t.Error("different index should give different seed")
	}
}
