// Tracereplay: generates a Section VI activity trace (login/logout/
// subscribe/unsubscribe/publish) and replays it against the in-process
// prototype rig under two different caching policies, printing how the
// same workload fares under each — the Fig. 7 methodology in miniature.
// Optionally writes the generated trace to a JSONL file for badtrace /
// external tooling.
//
// Run with:
//
//	go run ./examples/tracereplay [-subscribers 100] [-out trace.jsonl]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gobad/internal/core"
	"gobad/internal/experiments"
	"gobad/internal/trace"
)

func main() {
	subscribers := flag.Int("subscribers", 100, "subscriber population")
	duration := flag.Duration("duration", 20*time.Minute, "trace duration (virtual)")
	budgetKB := flag.Int64("budget-kb", 256, "cache budget in KB")
	out := flag.String("out", "", "also write the trace as JSONL to this file")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	if err := run(*subscribers, *duration, *budgetKB, *out, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(subscribers int, duration time.Duration, budgetKB int64, out string, seed int64) error {
	gen := trace.DefaultGenConfig()
	gen.Seed = seed
	gen.Subscribers = subscribers
	gen.UniqueSubscriptions = subscribers * 4
	gen.Duration = duration
	tr, err := trace.Generate(gen)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d activities over %v for %d subscribers\n",
		tr.Len(), gen.Duration, gen.Subscribers)

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := tr.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", out)
	}

	budget := budgetKB << 10
	for _, p := range []core.Policy{core.NC{}, core.LSC{}} {
		rig, err := experiments.NewRig(experiments.RigConfig{
			Policy:      p,
			CacheBudget: budget,
			Seed:        seed,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		if err := trace.Play(tr, rig); err != nil {
			return err
		}
		st := rig.Broker().Stats()
		fmt.Printf("\npolicy %-4s (budget %dKB): replayed in %v\n",
			p.Name(), budgetKB, time.Since(start).Round(time.Millisecond))
		fmt.Printf("  frontend subs %d -> backend subs %d (suppression)\n",
			rig.Broker().NumFrontendSubs(), rig.Broker().NumBackendSubs())
		fmt.Printf("  hit ratio %.3f, mean latency %.3fs, fetched %.2fMB from the cluster\n",
			st.HitRatio(), st.Latency.Mean(), st.FetchBytes.Value()/(1<<20))
	}
	fmt.Println("\nthe cached run answers most retrievals at the edge; NC pays the cluster round trip every time.")
	return nil
}
