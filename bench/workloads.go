package main

import (
	"fmt"
	"math/rand"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/trace"
	"gobad/internal/workload"
)

// The four workloads. Every rate and size below is a frozen constant,
// sized on the reference box (2 cores, GOMAXPROCS 2) so that the whole
// process — stack and load generator — uses about a quarter to a third of
// the two cores; none is derived from the machine at run time. The README
// records the utilisation each produced.

type workloadSpec struct {
	name string
	// why is the line BENCHMARK.json carries for the workload.
	why string
	// build generates the workload's inputs for one seed and window.
	build func(seed int64, window time.Duration) *plan
}

var workloads = []workloadSpec{
	{"fanout_hot", "256 sessions share 8 signatures: hub, wsock and client retrieval do the work; eval idle; hit ratio 1", buildFanoutHot},
	{"eval_wide", "2000 signatures without an index key, fan-out 1: aql and group evaluation dominate; hub idle", buildEvalWide},
	{"churn_miss", "Section VI trace, ON/OFF sessions and churn, cache at a tenth of the volume: eviction, misses, control path", buildChurnMiss},
	{"burst_batch", "32-record batches every 250 ms: one WAL flush and one evaluation per batch; burst drain time", buildBurstBatch},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	fanoutSessions   = 256
	fanoutSignatures = 8
	fanoutRate       = 40.0 // publications/s, Poisson
	fanoutWarmup     = 150  // closed-loop warm-up publications

	evalSessions = 100 // x 20 subscriptions each
	evalCells    = 200 // x 10 severity thresholds = 2000 signatures
	evalRate     = 25.0
	evalWarmup   = 100

	burstSessions   = 128
	burstSignatures = 64 // x fan-out 4 = 2 subscriptions per session
	burstSize       = 32
	burstPeriod     = 250 * time.Millisecond
	burstWarmup     = 40 // closed-loop warm-up batches

	churnSubscribers = 200
	churnSubsPerSub  = 9
	churnUnique      = 600
	churnZipf        = 0.7
	churnSpeedup     = 60.0 // trace seconds per wall second
	churnOnMean      = 8 * time.Minute
	churnOffMean     = 6 * time.Minute
	churnPubInterval = time.Second // trace time: 60 publications/s on the wall
	churnChurnProb   = 0.1
	churnCacheBudget = 160 << 10
	// churnPopulationSeed freezes the subscriber population and its sessions.
	churnPopulationSeed = 1

	hotCacheBudget = 64 << 20 // far above any working set

	payloadLo, payloadHi = 200, 1000
)

// signature is one (channel, parameters) pair subscribers subscribe to.
type signature struct {
	Channel string
	Params  []any
}

// pubEvent is one call the publisher makes: a record, or a batch.
type pubEvent struct {
	// Due is the scheduled send time as an offset from the window start
	// (unused for warm-up events, which run closed loop).
	Due     time.Duration
	IDs     []int
	Records []map[string]any
	Batch   bool
}

// plan is everything one run feeds the system, made from the seed alone.
type plan struct {
	name        string
	dataset     string
	channels    []bdms.ChannelDef
	sigs        []signature
	subscribers []string
	// static lists each subscriber's signatures for the workloads whose
	// subscriptions never change (nil for churn_miss).
	static [][]int
	// warm runs closed loop during set-up; events is the measured schedule.
	warm, events []pubEvent
	// pubSigs maps publication ID to the signatures the record was built
	// to match: the oracle's only source of expectations.
	pubSigs       map[int][]int
	firstMeasured int
	cacheBudget   int64

	// churn_miss only: the trace prefix replayed unpaced during set-up
	// (publications included) and the control activities of the window,
	// rebased so the window starts at 0.
	prefix, control *trace.Trace
	sigIndex        map[string]int
}

const padAlphabet = "abcdefghijklmnopqrstuvwxyz "

// ladder deals the values lo, lo+step, ..., hi in shuffled blocks: every
// block of draws holds each value once. What a run costs per delivery
// depends on the mean payload and the mean number of matches, and with a
// ladder those means are the same for every seed; only the order differs.
type ladder struct {
	values []float64
	next   int
}

func newLadder(lo, hi, step float64) *ladder {
	l := &ladder{}
	for v := lo; v <= hi; v += step {
		l.values = append(l.values, v)
	}
	l.next = len(l.values)
	return l
}

// Sample implements workload.Dist, so trace.Generate can draw publication
// sizes from a ladder too.
func (l *ladder) Sample(rng *rand.Rand) float64 {
	if l.next == len(l.values) {
		rng.Shuffle(len(l.values), func(i, j int) { l.values[i], l.values[j] = l.values[j], l.values[i] })
		l.next = 0
	}
	l.next++
	return l.values[l.next-1]
}

func (l *ladder) Mean() float64 {
	sum := 0.0
	for _, v := range l.values {
		sum += v
	}
	return sum / float64(len(l.values))
}

func (l *ladder) String() string {
	return fmt.Sprintf("Ladder(%g..%g, %d steps)", l.values[0], l.values[len(l.values)-1], len(l.values))
}

var _ workload.Dist = (*ladder)(nil)

func payloadLadder() *ladder { return newLadder(payloadLo, payloadHi, 40) }

// record builds one publication of size encoded bytes (200-1000).
func record(rng *rand.Rand, size float64, id int, key string, severity, lat, lon float64) map[string]any {
	const fixed = 110 // encoded size of the fields without padding, roughly
	pad := int(size) - fixed
	b := make([]byte, pad)
	for i := range b {
		b[i] = padAlphabet[rng.Intn(len(padAlphabet))]
	}
	return map[string]any{
		"pub":      float64(id),
		"key":      key,
		"severity": severity,
		"location": map[string]any{"lat": lat, "lon": lon},
		"padding":  string(b),
	}
}

// poisson returns arrival offsets in [0, window) at the given rate.
func poisson(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

func subscriberNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sub-%04d", i)
	}
	return out
}

const keyedChannel = "KeyedAlerts"

func keyedChannelDef() bdms.ChannelDef {
	return bdms.ChannelDef{
		Name: keyedChannel, Params: []string{"key"},
		Body: "select * from Pubs r where r.key = $key",
	}
}

func keyName(i int) string { return fmt.Sprintf("k-%03d", i) }

// buildKeyed lays out a workload on the equality-indexed channel:
// signature i is key i, subscriber s holds signatures subsOf(s), and each
// event's records pick their keys with pick.
func buildKeyed(name string, seed int64, nsig, nsess int, subsOf func(s int) []int,
	warm, measured []time.Duration, perEvent int, batch bool, pick func(rng *rand.Rand, n int) []int) *plan {
	rng := rand.New(rand.NewSource(workload.DeriveSeed(seed, name, 0)))
	p := &plan{
		name: name, dataset: "Pubs",
		channels:    []bdms.ChannelDef{keyedChannelDef()},
		subscribers: subscriberNames(nsess),
		pubSigs:     make(map[int][]int),
		cacheBudget: hotCacheBudget,
	}
	for i := 0; i < nsig; i++ {
		p.sigs = append(p.sigs, signature{Channel: keyedChannel, Params: []any{keyName(i)}})
	}
	p.static = make([][]int, nsess)
	for s := range p.static {
		p.static[s] = subsOf(s)
	}
	id := 0
	sizes := payloadLadder()
	event := func(due time.Duration) pubEvent {
		ev := pubEvent{Due: due, Batch: batch}
		for _, k := range pick(rng, perEvent) {
			id++
			ev.IDs = append(ev.IDs, id)
			ev.Records = append(ev.Records, record(rng, sizes.Sample(rng), id, keyName(k), 1, 33.68, -117.82))
			p.pubSigs[id] = []int{k}
		}
		return ev
	}
	for range warm {
		p.warm = append(p.warm, event(0))
	}
	p.firstMeasured = id + 1
	for _, due := range measured {
		p.events = append(p.events, event(due))
	}
	return p.indexSigs()
}

func buildFanoutHot(seed int64, window time.Duration) *plan {
	rng := rand.New(rand.NewSource(workload.DeriveSeed(seed, "fanout_hot.arrivals", 0)))
	return buildKeyed("fanout_hot", seed, fanoutSignatures, fanoutSessions,
		func(s int) []int { return []int{s % fanoutSignatures} },
		make([]time.Duration, fanoutWarmup), poisson(rng, fanoutRate, window), 1, false,
		func(rng *rand.Rand, n int) []int { return []int{rng.Intn(fanoutSignatures)} })
}

func buildBurstBatch(seed int64, window time.Duration) *plan {
	var due []time.Duration
	for at := time.Duration(0); at < window; at += burstPeriod {
		due = append(due, at)
	}
	// 64 signatures x fan-out 4 over 128 sessions: each session holds two.
	return buildKeyed("burst_batch", seed, burstSignatures, burstSessions,
		func(s int) []int {
			a := (s * 2) % burstSignatures
			return []int{a, a + 1}
		},
		make([]time.Duration, burstWarmup), due, burstSize, true,
		func(rng *rand.Rand, n int) []int {
			keys := make([]int, n)
			for i := range keys {
				// With replacement: keys drawn twice in a batch give
				// result objects that carry several rows.
				keys[i] = rng.Intn(burstSignatures)
			}
			return keys
		})
}

// eval_wide geometry: 200 cells on a 20x10 grid, 0.02 degrees apart
// (about 2 km), each with ten signatures that differ in their severity
// threshold and share a 0.5 km radius. A record is placed within 0.001
// degrees of one cell's centre with severity s, so it matches exactly the
// s signatures of that cell whose threshold is at most s — known to the
// generator without evaluating anything.
const (
	evalThresholds = 10
	evalGridCols   = 20
	evalLat0       = 33.5
	evalLon0       = -118.0
	evalGridStep   = 0.02
	evalRadiusKm   = 0.5
	evalJitter     = 0.001
)

func evalCellCentre(cell int) (lat, lon float64) {
	return evalLat0 + evalGridStep*float64(cell/evalGridCols), evalLon0 + evalGridStep*float64(cell%evalGridCols)
}

func buildEvalWide(seed int64, window time.Duration) *plan {
	rng := rand.New(rand.NewSource(workload.DeriveSeed(seed, "eval_wide", 0)))
	p := &plan{
		name: "eval_wide", dataset: "Pubs",
		channels: []bdms.ChannelDef{{
			Name: "WideAlerts", Params: []string{"minSeverity", "lat", "lon", "radiusKm"},
			Body: "select * from Pubs r where r.severity >= $minSeverity and " +
				"geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radiusKm",
		}},
		subscribers: subscriberNames(evalSessions),
		pubSigs:     make(map[int][]int),
		cacheBudget: hotCacheBudget,
	}
	// Signature j: cell j/10, threshold j%10+1; subscriber j%100 holds it,
	// so a record's matches land on distinct subscribers (fan-out 1).
	nsig := evalCells * evalThresholds
	p.static = make([][]int, evalSessions)
	for j := 0; j < nsig; j++ {
		lat, lon := evalCellCentre(j / evalThresholds)
		p.sigs = append(p.sigs, signature{Channel: "WideAlerts",
			Params: []any{float64(j%evalThresholds + 1), lat, lon, evalRadiusKm}})
		p.static[j%evalSessions] = append(p.static[j%evalSessions], j)
	}
	id := 0
	sizes, severities := payloadLadder(), newLadder(1, evalThresholds, 1)
	event := func(due time.Duration) pubEvent {
		id++
		cell := rng.Intn(evalCells)
		severity := int(severities.Sample(rng))
		lat, lon := evalCellCentre(cell)
		lat += (rng.Float64()*2 - 1) * evalJitter
		lon += (rng.Float64()*2 - 1) * evalJitter
		for m := 0; m < severity; m++ {
			p.pubSigs[id] = append(p.pubSigs[id], cell*evalThresholds+m)
		}
		return pubEvent{Due: due, IDs: []int{id},
			Records: []map[string]any{record(rng, sizes.Sample(rng), id, "", float64(severity), lat, lon)}}
	}
	for i := 0; i < evalWarmup; i++ {
		p.warm = append(p.warm, event(0))
	}
	p.firstMeasured = id + 1
	for _, due := range poisson(rng, evalRate, window) {
		p.events = append(p.events, event(due))
	}
	return p.indexSigs()
}

// churnCatalog is the Table III neighbourhood channels, continuous so
// that every publication has a definite set of matching signatures.
var churnCatalog = []workload.ChannelSpec{
	{
		Name: "TypeNearLocation", Params: []string{"etype", "lat", "lon", "radiusKm"},
		Dataset: "EmergencyReports",
		Body: "select * from EmergencyReports r where r.etype = $etype and " +
			"geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radiusKm",
	},
	{
		Name: "NearLocation", Params: []string{"lat", "lon", "radiusKm"},
		Dataset: "EmergencyReports",
		Body: "select * from EmergencyReports r where " +
			"geo_distance(r.location.lat, r.location.lon, $lat, $lon) <= $radiusKm",
	},
}

// churnMatches is the generator's own reading of the two churn channels.
func churnMatches(sig signature, rec map[string]any) bool {
	loc := rec["location"].(map[string]any)
	at := workload.Point{Lat: loc["lat"].(float64), Lon: loc["lon"].(float64)}
	params := sig.Params
	if sig.Channel == "TypeNearLocation" {
		if rec["etype"] != params[0] {
			return false
		}
		params = params[1:]
	}
	centre := workload.Point{Lat: params[0].(float64), Lon: params[1].(float64)}
	return workload.DistanceKm(at, centre) <= params[2].(float64)
}

func sigKey(channel string, params []any) string { return fmt.Sprintf("%s|%v", channel, params) }

// buildChurnMiss generates the Section VI trace, compressed 60x, and cuts
// it at one fifth: trace.Generate brings every subscriber online during
// the first fifth, so that part is replayed unpaced as set-up and the
// remaining four fifths are the measured window.
//
// The population — who subscribes to what, who is online when, who churns
// — is part of the workload, like the 256 sessions of fanout_hot, and is
// frozen (churnPopulationSeed). The run's seed draws the publications:
// their arrival times, places, types and contents. Two traces are
// generated and merged: the control activities of the first, the
// publications of the second.
func buildChurnMiss(seed int64, window time.Duration) *plan {
	total := time.Duration(float64(window) * churnSpeedup * 1.25)
	generate := func(seed int64) *trace.Trace {
		tr, err := trace.Generate(trace.GenConfig{
			Seed: seed, Duration: total,
			Subscribers: churnSubscribers, SubsPerSubscriber: churnSubsPerSub,
			UniqueSubscriptions: churnUnique, ZipfS: churnZipf,
			PublishInterval: churnPubInterval,
			PublicationSize: payloadLadder(),
			OnMean:          churnOnMean, OffMean: churnOffMean,
			ChurnProb: churnChurnProb, Channels: churnCatalog,
		})
		if err != nil {
			panic(err) // the configuration above is constant and valid
		}
		return tr
	}
	tr := &trace.Trace{}
	for _, a := range generate(churnPopulationSeed).Activities {
		if a.Kind != trace.Publish {
			tr.Activities = append(tr.Activities, a)
		}
	}
	for _, a := range generate(seed).Activities {
		if a.Kind == trace.Publish {
			tr.Activities = append(tr.Activities, a)
		}
	}
	tr.Sort()
	p := &plan{
		name: "churn_miss", dataset: "EmergencyReports",
		subscribers: subscriberNames(churnSubscribers),
		pubSigs:     make(map[int][]int),
		cacheBudget: churnCacheBudget,
		prefix:      &trace.Trace{}, control: &trace.Trace{},
	}
	for _, c := range churnCatalog {
		p.channels = append(p.channels, bdms.ChannelDef{Name: c.Name, Params: c.Params, Body: c.Body})
	}
	p.sigIndex = make(map[string]int)
	for _, a := range tr.Activities {
		if a.Kind == trace.Subscribe {
			k := sigKey(a.Channel, a.Params)
			if _, ok := p.sigIndex[k]; !ok {
				p.sigIndex[k] = len(p.sigs)
				p.sigs = append(p.sigs, signature{Channel: a.Channel, Params: a.Params})
			}
		}
	}
	cut := total / 5
	id := 0
	for _, a := range tr.Activities {
		if a.Kind == trace.Publish {
			id++
			a.Data["pub"] = float64(id)
		}
		switch {
		case a.At < cut:
			p.prefix.Activities = append(p.prefix.Activities, a)
			if a.Kind == trace.Publish {
				p.firstMeasured = id + 1
			}
		case a.Kind == trace.Publish:
			for i, sig := range p.sigs {
				if churnMatches(sig, a.Data) {
					p.pubSigs[id] = append(p.pubSigs[id], i)
				}
			}
			due := time.Duration(float64(a.At-cut) / churnSpeedup)
			p.events = append(p.events, pubEvent{Due: due, IDs: []int{id}, Records: []map[string]any{a.Data}})
		default:
			a.At = time.Duration(float64(a.At-cut) / churnSpeedup)
			p.control.Activities = append(p.control.Activities, a)
		}
	}
	if p.firstMeasured == 0 {
		p.firstMeasured = 1
	}
	return p
}

// indexSigs builds the signature lookup sigOf uses.
func (p *plan) indexSigs() *plan {
	p.sigIndex = make(map[string]int, len(p.sigs))
	for i, s := range p.sigs {
		p.sigIndex[sigKey(s.Channel, s.Params)] = i
	}
	return p
}

// sigOf resolves a trace activity's subscription to its signature index.
func (p *plan) sigOf(channel string, params []any) (int, bool) {
	i, ok := p.sigIndex[sigKey(channel, params)]
	return i, ok
}
