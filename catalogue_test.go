package gobad

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
	"gobad/internal/httpx"
	"gobad/internal/obs"
	"gobad/internal/obs/span"
	"gobad/internal/sim"
)

// TestMetricCatalogue holds DESIGN.md § 4.5's family table and the
// registries to each other, both ways: every bad_* family a server (or the
// simulator's final dump) exposes is in the table with the type it is
// exposed as, and every bad_* name in the table is exposed by one of them.
// The servers are built as their cmd/ mains build them: fabric on, a
// durable store, and the collectors the mains register themselves.
func TestMetricCatalogue(t *testing.T) {
	exposed := map[string]obs.MetricType{}
	expose := func(name string, typ obs.MetricType) {
		if !strings.HasPrefix(name, "bad_") {
			return
		}
		if prev, ok := exposed[name]; ok && prev != typ {
			t.Errorf("%s is exposed as both %s and %s", name, prev, typ)
		}
		exposed[name] = typ
	}
	gather := func(o *httpx.Observer) {
		for _, f := range o.Registry.Gather() {
			expose(f.Name, f.Type)
		}
	}

	notifierStats := &bdms.NotifierStats{}
	store, err := bdms.OpenStore(t.TempDir(), bdms.StoreConfig{Logger: obs.NopLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	clusterSrv := bdms.NewServer(store.Cluster(), bdms.WithStore(store),
		bdms.WithStages(span.NewStages(span.DefaultSlowThreshold, nil)))
	clusterSrv.Observer().Registry.MustRegister(notifierStats.Collector())
	gather(clusterSrv.Observer())

	b, err := broker.New(broker.Config{
		ID: "b1", Backend: store.Cluster(), Policy: core.LSC{}, CacheBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	brokerSrv := broker.NewServer(b)
	breakers := httpx.NewBreakerSet(httpx.BreakerConfig{})
	breakers.For("cluster")
	brokerSrv.Observer().Registry.MustRegister((&httpx.RetryStats{}).Collector(), breakers.Collector())
	gather(brokerSrv.Observer())

	gather(bcs.NewServer(bcs.NewService()).Observer())

	var dump strings.Builder
	cfg := sim.DefaultConfig().Scaled(100)
	cfg.Duration, cfg.JoinWindow = 10*time.Minute, time.Minute
	cfg.Policy, cfg.CacheBudget = core.LSC{}, 1<<20
	cfg.ExpositionWriter = &dump
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseText(strings.NewReader(dump.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, typ := range parsed.Types {
		expose(name, typ)
	}

	documented := designCatalogue(t)
	for name, typ := range exposed {
		if doc, ok := documented[name]; !ok {
			t.Errorf("%s (%s) is exposed but missing from DESIGN.md § 4.5's table", name, typ)
		} else if doc != typ {
			t.Errorf("%s is exposed as %s, DESIGN.md § 4.5 says %s", name, typ, doc)
		}
	}
	for name := range documented {
		if _, ok := exposed[name]; !ok {
			t.Errorf("DESIGN.md § 4.5 lists %s, which no server and no sim dump exposes", name)
		}
	}
}

// designCatalogue reads the bad_* rows of DESIGN.md § 4.5's family table:
// `| names… | type | where |`, one type per row.
func designCatalogue(t *testing.T) map[string]obs.MetricType {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n### 4.5 ")
	if !ok {
		t.Fatal("DESIGN.md has no § 4.5")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	family := regexp.MustCompile("`(bad_[a-z0-9_]+)")
	out := map[string]obs.MetricType{}
	for _, line := range strings.Split(section, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 4 {
			continue
		}
		for _, m := range family.FindAllStringSubmatch(cols[1], -1) {
			out[m[1]] = obs.MetricType(strings.TrimSpace(cols[2]))
		}
	}
	if len(out) == 0 {
		t.Fatal("no bad_* rows parsed from DESIGN.md § 4.5")
	}
	return out
}
