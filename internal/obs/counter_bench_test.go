package obs

import (
	"sync/atomic"
	"testing"
)

// The Counter sits inside every cache GET/PUT (hits, bytes, requests), so
// its Add is a cache hot path. These benchmarks cover the serial and the
// contended case; `go test -bench Counter -benchmem ./internal/obs`.

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != float64(b.N) {
		b.Fatalf("value = %v, want %d", c.Value(), b.N)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

// BenchmarkCounterValueInterleaved mimics the exposition scrape pattern:
// many writers, an occasional reader.
func BenchmarkCounterValueInterleaved(b *testing.B) {
	var c Counter
	var reads atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%1024 == 0 {
				_ = c.Value()
				reads.Add(1)
			} else {
				c.Add(2)
			}
			i++
		}
	})
}
