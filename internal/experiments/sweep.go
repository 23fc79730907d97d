package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"gobad/internal/core"
	"gobad/internal/metrics"
	"gobad/internal/sim"
	"gobad/internal/trace"
	"gobad/internal/workload"
)

func workloadRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(workload.DeriveSeed(seed, "shelters", 0)))
}

// Policies under comparison in the Section V figures, in plotting order.
var simPolicies = []core.Policy{
	core.LRU{}, core.LSC{}, core.LSCz{}, core.LSD{}, core.EXP{}, core.TTL{},
}

// prototypePolicies adds the no-cache baseline used in Fig. 7.
var prototypePolicies = []core.Policy{
	core.NC{}, core.LRU{}, core.LSC{}, core.TTL{},
}

// SimSweepConfig parameterizes the Fig. 3/4/5 sweeps.
type SimSweepConfig struct {
	// Base is the simulation config (policy/budget overridden per cell).
	Base sim.Config
	// Budgets is the cache-size x-axis (the paper: 50-500 MB at full
	// scale).
	Budgets []int64
	// Runs averages each cell over this many independent seeds (the
	// paper: ten).
	Runs int
	// Policies defaults to the six Section V policies.
	Policies []core.Policy
}

// Cell is one (policy, budget) data point: a simulation averaged over its
// runs, or one replay of the trace against the prototype.
type Cell struct {
	Policy  string
	Budget  int64
	Metrics metrics.Snapshot
	// RhoTTLSum and PerCache (from the first run only) come from the
	// simulator; the prototype leaves them zero.
	RhoTTLSum float64
	PerCache  []sim.CacheSummary
}

// Sweep is one policy x budget grid: the Fig. 3/4/5 data set from the
// simulator or the Fig. 7 data set from the prototype.
type Sweep struct {
	Budgets []int64
	Cells   map[string]map[int64]Cell // policy -> budget -> cell
	// Vol is the total produced volume (identical across policies).
	Vol float64
	// FrontendSubs and BackendSubs are the prototype's subscription
	// suppression at the end of the trace (identical across cells); the
	// simulator leaves them zero.
	FrontendSubs, BackendSubs int
}

// runGrid fills a sweep with run's cell for every (policy, budget).
func runGrid(policies []core.Policy, budgets []int64, run func(core.Policy, int64) (Cell, error)) (*Sweep, error) {
	out := &Sweep{
		Budgets: budgets,
		Cells:   make(map[string]map[int64]Cell, len(policies)),
	}
	for _, p := range policies {
		out.Cells[p.Name()] = make(map[int64]Cell, len(budgets))
		for _, budget := range budgets {
			cell, err := run(p, budget)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s@%d: %w", p.Name(), budget, err)
			}
			cell.Policy, cell.Budget = p.Name(), budget
			out.Cells[p.Name()][budget] = cell
			if cell.Metrics.VolumeBytes > out.Vol {
				out.Vol = cell.Metrics.VolumeBytes
			}
		}
	}
	return out, nil
}

// RunSimSweep executes the policy x budget x seed grid.
func RunSimSweep(cfg SimSweepConfig) (*Sweep, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 3
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = simPolicies
	}
	if len(cfg.Budgets) == 0 {
		return nil, fmt.Errorf("experiments: SimSweepConfig.Budgets is required")
	}
	return runGrid(policies, cfg.Budgets, func(p core.Policy, budget int64) (Cell, error) {
		var cell Cell
		var snaps []metrics.Snapshot
		for run := 0; run < cfg.Runs; run++ {
			rc := cfg.Base
			rc.Policy = p
			rc.CacheBudget = budget
			rc.Seed = workload.DeriveSeed(cfg.Base.Seed, "run", run)
			res, err := sim.Run(rc)
			if err != nil {
				return Cell{}, fmt.Errorf("run %d: %w", run, err)
			}
			snaps = append(snaps, res.Metrics)
			cell.RhoTTLSum += res.RhoTTLSum / float64(cfg.Runs)
			if run == 0 {
				cell.PerCache = res.PerCache
			}
		}
		cell.Metrics = metrics.AverageSnapshots(snaps)
		return cell, nil
	})
}

// MetricColumn extracts one figure's y-value from a cell.
type MetricColumn struct {
	// Name heads the printed table.
	Name string
	// Unit is appended to the header.
	Unit string
	// Value extracts the metric.
	Value func(Cell) float64
}

// Figure metric columns, one per sub-figure.
var (
	// ColHitRatio is Fig. 3(a).
	ColHitRatio = MetricColumn{"hit_ratio", "", func(c Cell) float64 { return c.Metrics.HitRatio }}
	// ColHitByte is Fig. 3(b).
	ColHitByte = MetricColumn{"hit_byte", "MB", func(c Cell) float64 { return c.Metrics.HitBytes / (1 << 20) }}
	// ColMissByte is Fig. 3(c).
	ColMissByte = MetricColumn{"miss_byte", "MB", func(c Cell) float64 { return c.Metrics.MissBytes / (1 << 20) }}
	// ColFetch is Fig. 4(a).
	ColFetch = MetricColumn{"fetch", "MB", func(c Cell) float64 { return c.Metrics.FetchBytes / (1 << 20) }}
	// ColLatency is Fig. 4(b).
	ColLatency = MetricColumn{"latency", "s", func(c Cell) float64 { return c.Metrics.MeanLatency }}
	// ColHolding is Fig. 4(c).
	ColHolding = MetricColumn{"holding_time", "s", func(c Cell) float64 { return c.Metrics.HoldingTime }}
	// ColAvgSize and ColMaxSize are Fig. 5(a).
	ColAvgSize = MetricColumn{"avg_cache_size", "MB", func(c Cell) float64 { return c.Metrics.AvgCacheSize / (1 << 20) }}
	// ColMaxSize is Fig. 5(a)'s max series.
	ColMaxSize = MetricColumn{"max_cache_size", "MB", func(c Cell) float64 { return c.Metrics.MaxCacheSize / (1 << 20) }}
)

// FormatTable renders one figure as an aligned text table: one row per
// policy, one column per budget.
func (s *Sweep) FormatTable(title string, col MetricColumn) string {
	var b strings.Builder
	header := col.Name
	if col.Unit != "" {
		header += " (" + col.Unit + ")"
	}
	fmt.Fprintf(&b, "%s — %s\n", title, header)
	fmt.Fprintf(&b, "%-8s", "policy")
	for _, budget := range s.Budgets {
		fmt.Fprintf(&b, "%14s", metrics.FormatBytes(float64(budget)))
	}
	b.WriteString("\n")
	for _, name := range s.policies() {
		fmt.Fprintf(&b, "%-8s", name)
		for _, budget := range s.Budgets {
			fmt.Fprintf(&b, "%14.4f", col.Value(s.Cells[name][budget]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatCSV renders one figure as CSV (header: policy,<budget>,...), for
// downstream plotting tools.
func (s *Sweep) FormatCSV(col MetricColumn) string {
	var b strings.Builder
	b.WriteString("policy")
	for _, budget := range s.Budgets {
		fmt.Fprintf(&b, ",%d", budget)
	}
	b.WriteString("\n")
	for _, name := range s.policies() {
		b.WriteString(name)
		for _, budget := range s.Budgets {
			fmt.Fprintf(&b, ",%g", col.Value(s.Cells[name][budget]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// policies lists the sweep's policies in legend order.
func (s *Sweep) policies() []string {
	names := make([]string, 0, len(s.Cells))
	for name := range s.Cells {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return policyRank(names[i]) < policyRank(names[j]) })
	return names
}

// policyRank orders policies as the paper's legends do.
func policyRank(name string) int {
	order := []string{"NC", "LRU", "LSC", "LSCz", "LSD", "EXP", "TTL"}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// PrototypeSweepConfig parameterizes Fig. 7.
type PrototypeSweepConfig struct {
	// Trace drives every configuration identically (required).
	Trace *trace.Trace
	// Budgets is the cache-size axis (the paper shows gains from 100KB).
	Budgets []int64
	// Policies defaults to NC, LRU, LSC, TTL.
	Policies []core.Policy
	// Seed configures the rig (shelter placement etc.).
	Seed int64
}

// RunPrototypeSweep replays the trace against the in-process prototype for
// every (policy, budget) combination.
func RunPrototypeSweep(cfg PrototypeSweepConfig) (*Sweep, error) {
	if len(cfg.Budgets) == 0 || cfg.Trace == nil {
		return nil, fmt.Errorf("experiments: PrototypeSweepConfig.Budgets and Trace are required")
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = prototypePolicies
	}
	var frontend, backend int
	out, err := runGrid(policies, cfg.Budgets, func(p core.Policy, budget int64) (Cell, error) {
		rig, err := NewRig(RigConfig{Policy: p, CacheBudget: budget, Seed: cfg.Seed})
		if err != nil {
			return Cell{}, err
		}
		if err := trace.Play(cfg.Trace, rig); err != nil {
			return Cell{}, err
		}
		frontend, backend = rig.Broker().NumFrontendSubs(), rig.Broker().NumBackendSubs()
		return Cell{Metrics: rig.Broker().Stats().SnapshotAt(rig.now())}, nil
	})
	if err != nil {
		return nil, err
	}
	out.FrontendSubs, out.BackendSubs = frontend, backend
	return out, nil
}

// Fig5BPoint pairs a cache's TTL with its observed holding time.
type Fig5BPoint struct {
	Policy      string  `json:"policy"`
	TTLSeconds  float64 `json:"ttl_s"`
	HoldingMean float64 `json:"holding_mean_s"`
}

// Fig5B extracts (TTL, holding-time) pairs for the TTL-vs-LSC comparison
// from a sweep cell's per-cache summaries.
func Fig5B(cell Cell) []Fig5BPoint {
	out := make([]Fig5BPoint, 0, len(cell.PerCache))
	for _, pc := range cell.PerCache {
		if pc.HoldingN == 0 {
			continue
		}
		ttl := pc.TTLStampedMean
		if ttl <= 0 {
			// Non-stamping policy: compare against the hypothetical
			// assigned TTL.
			ttl = pc.TTLSeconds
		}
		out = append(out, Fig5BPoint{
			Policy:      cell.Policy,
			TTLSeconds:  ttl,
			HoldingMean: pc.HoldingMean,
		})
	}
	return out
}

// HoldingTTLCorrelation summarizes Fig. 5(b): the mean absolute relative
// gap between holding time and TTL across caches (small for the TTL
// policy, large for eviction policies).
func HoldingTTLCorrelation(points []Fig5BPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, p := range points {
		if p.TTLSeconds <= 0 {
			continue
		}
		gap := p.HoldingMean - p.TTLSeconds
		if gap < 0 {
			gap = -gap
		}
		sum += gap / p.TTLSeconds
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// DefaultSimBase returns the scaled simulation base config used by the
// benchmark harness: Table II shapes at 1/20 population scale so a full
// figure regenerates in minutes, not hours. Pass scale=1 for the paper's
// full Table II settings.
func DefaultSimBase(scale float64) sim.Config {
	cfg := sim.DefaultConfig()
	// The paper recomputes TTLs "every 5 minutes" — and that choice turns
	// out to be well tuned: recomputing every minute chases noisy rate
	// estimates and doubles the TTL cache's budget overshoot
	// (BenchmarkAblationTTLRecompute). DefaultTTL bounds the warm-up
	// before the first recompute.
	cfg.TTL = core.TTLConfig{
		RecomputeInterval: 5 * time.Minute,
		DefaultTTL:        time.Minute,
	}
	if scale > 1 {
		cfg = cfg.Scaled(scale)
	}
	return cfg
}

// DefaultBudgets derives a budget axis matching the paper's 50-500MB range
// scaled to the population: the paper's arrival volume is ~7 MB/s at full
// scale, so budgets scale with the backend-subscription count.
func DefaultBudgets(base sim.Config) []int64 {
	full := []int64{50 << 20, 100 << 20, 200 << 20, 300 << 20, 400 << 20, 500 << 20}
	scale := float64(1000) / float64(base.BackendSubs)
	out := make([]int64, 0, len(full))
	for _, b := range full {
		v := int64(float64(b) / scale)
		if v < 1<<20 {
			v = 1 << 20
		}
		// The 1 MB floor can collapse neighbors at extreme scales; keep
		// the axis strictly increasing.
		if len(out) > 0 && v <= out[len(out)-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}
