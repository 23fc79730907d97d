package client

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// liveHeap is what the heap retains once garbage is collected.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestClientMeasurementsBounded: a client lives as long as its subscriber,
// so nothing it measures may grow with the calls it serves — 10⁴
// retrievals and 10⁵ reconnect observations leave the retained heap flat
// (a sample kept per call would hold 80 KB and 800 KB).
func TestClientMeasurementsBounded(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, `{"results":[]}`)
	}))
	defer stub.Close()
	c, err := New(Config{Subscriber: "sam", BrokerURL: stub.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	get := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.GetResults("fs-1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	get(100) // the connection and every lazily built buffer exist from here on
	// A sample per call would grow every window by 80 KB; goroutines other
	// tests left winding down can disturb one window, not three in a row.
	grew := int64(1 << 62)
	for window := 0; window < 3 && grew > 40<<10; window++ {
		before := liveHeap()
		get(10000)
		grew = min(grew, liveHeap()-before)
	}
	if grew > 40<<10 {
		t.Errorf("10⁴ GetResults retained %d bytes", grew)
	}
	before := liveHeap()
	for i := 0; i < 100000; i++ {
		c.Failover().ReconnectSeconds.Observe(0.01)
	}
	if grew := liveHeap() - before; grew > 256<<10 {
		t.Errorf("10⁵ reconnect observations retained %d bytes", grew)
	}
}
