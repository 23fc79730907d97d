// Analytics: the "big data management" side of Big Active Data — durable
// ingestion with write-ahead logging and crash recovery, standing digest
// channels built on AQL aggregation (count/sum/avg/min/max + group by),
// and ad-hoc analytical queries over the stored publications.
//
// Run with:
//
//	go run ./examples/analytics
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// manualClock lets the example fire the repetitive digest deterministically.
type manualClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *manualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func run() error {
	dir, err := os.MkdirTemp("", "gobad-analytics-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// --- Phase 1: a durable cluster ingests a burst of emergencies. ----
	clk := &manualClock{}
	store, err := bdms.OpenStore(dir, bdms.StoreConfig{}, bdms.WithClock(clk.Now))
	if err != nil {
		return err
	}
	cluster := store.Cluster()
	if err := cluster.CreateDataset("EmergencyReports", bdms.Schema{}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(7))
	gen := workload.NewReportGenerator(rng, workload.Uniform{Lo: 200, Hi: 400})
	for i := 0; i < 200; i++ {
		clk.Advance(time.Second)
		rep := gen.Next()
		if _, err := cluster.Ingest("EmergencyReports", map[string]any{
			"etype": rep.EType, "severity": rep.Severity,
			"location": map[string]any{"lat": rep.Location.Lat, "lon": rep.Location.Lon},
		}); err != nil {
			return err
		}
	}
	fmt.Printf("ingested %d publications (logged to %s)\n",
		cluster.Dataset("EmergencyReports").Len(), filepath.Base(dir))
	if err := store.Close(); err != nil {
		return err
	}

	// --- Phase 2: "crash" and recover from the log. --------------------
	store, err = bdms.OpenStore(dir, bdms.StoreConfig{}, bdms.WithClock(clk.Now))
	if err != nil {
		return err
	}
	defer store.Close()
	recovered := store.Cluster()
	fmt.Printf("recovered %d publications after restart\n",
		recovered.Dataset("EmergencyReports").Len())

	// --- Phase 3: a standing digest channel over the recovered data. ---
	if err := recovered.DefineChannel(bdms.ChannelDef{
		Name:   "SeverityDigest",
		Params: []string{"min"},
		Body: "select r.etype as etype, count(*) as reports, avg(r.severity) as mean_severity " +
			"from EmergencyReports r where r.severity >= $min " +
			"group by r.etype order by reports desc",
		Period: time.Minute,
	}); err != nil {
		return err
	}
	sub, err := recovered.Subscribe("SeverityDigest", []any{3.0}, "")
	if err != nil {
		return err
	}
	// New publications arrive, then the digest period elapses.
	for i := 0; i < 50; i++ {
		clk.Advance(time.Second)
		rep := gen.Next()
		if _, err := recovered.Ingest("EmergencyReports", map[string]any{
			"etype": rep.EType, "severity": rep.Severity,
			"location": map[string]any{"lat": rep.Location.Lat, "lon": rep.Location.Lon},
		}); err != nil {
			return err
		}
	}
	clk.Advance(time.Minute)
	recovered.RunRepetitiveDue()
	results, err := recovered.Results(sub, 0, clk.Now(), true)
	if err != nil {
		return err
	}
	fmt.Println("\nSeverityDigest (severe emergencies since subscription, by type):")
	for _, res := range results {
		var rows []map[string]any
		if err := json.Unmarshal(res.Rows, &rows); err != nil {
			return err
		}
		for _, row := range rows {
			fmt.Printf("  %-10v %3.0f reports, mean severity %.2f\n",
				row["etype"], row["reports"], row["mean_severity"])
		}
	}

	// --- Phase 4: ad-hoc analytics over everything stored. -------------
	rows, err := recovered.Query(
		"select r.etype as etype, count(*) as total, max(r.severity) as worst "+
			"from EmergencyReports r group by r.etype order by total desc limit 3",
		nil)
	if err != nil {
		return err
	}
	fmt.Println("\nad-hoc query — top 3 emergency types over the full history:")
	for _, row := range rows {
		fmt.Printf("  %-10v %3.0f total, worst severity %.0f\n",
			row["etype"], row["total"], row["worst"])
	}
	return nil
}
