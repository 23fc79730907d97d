package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The delivery oracle. It never asks the system what should have been
// delivered: the generator built every record to match a known set of
// signatures, so the expected (publication, subscription) pairs follow from
// the generator's own inputs plus the times at which the harness issued
// subscribe, unsubscribe, login and logout calls.

// deliveryDeadline is how long after a publication was due an online
// subscriber may wait for it; a later delivery is a failed operation.
const deliveryDeadline = 2 * time.Second

// forever stands for "never happened" in instance and session intervals.
const forever = time.Duration(math.MaxInt64)

// noNotif is an observation's NotifAt when no push frame announced it.
const noNotif = -forever

// pubInfo is one measured publication as the generator made it.
type pubInfo struct {
	ID int
	// Due is the scheduled send time, Sent and Acked bracket the publisher's
	// ingest call; all are offsets from the window start.
	Due, Sent, Acked time.Duration
	// Sigs are the signatures the record was built to match.
	Sigs []int
}

// subInstance is one lifetime of one subscriber's subscription to one
// signature, bracketed by the call times of Subscribe and Unsubscribe.
type subInstance struct {
	Subscriber int
	Sig        int
	SubStart   time.Duration
	SubEnd     time.Duration
	UnsubStart time.Duration // forever when never unsubscribed
	UnsubEnd   time.Duration
}

// sessionSpan is one login of a subscriber: Online is when the login
// (socket up, catch-up done) completed, Offline when the logout began.
type sessionSpan struct {
	Subscriber      int
	Online, Offline time.Duration
}

// observation is one result row handed to the application by
// client.GetResults, after the client's own watermark dedup.
type observation struct {
	Inst  int // index into oracleInput.Instances
	Order int // position in that instance's delivered stream
	Pub   int
	TS    int64         // result object timestamp (cluster ns)
	At    time.Duration // when GetResults returned
	// NotifAt is when the push frame announcing this result was read from
	// Client.Notifications(); noNotif when none was seen (catch-up).
	NotifAt time.Duration
	// Catchup marks a retrieval made by the login catch-up or the final
	// drain rather than by the retrieval pool on a push.
	Catchup bool
}

type oracleInput struct {
	// FirstMeasured is the ID of the first publication of the window; rows
	// of earlier (warm-up) publications are checked for order only.
	FirstMeasured int
	Pubs          []pubInfo // measured publications, any order
	Instances     []subInstance
	Sessions      []sessionSpan
	Observations  []observation
}

// delivered is one expected pair the oracle saw arrive.
type delivered struct {
	Pub     int
	Inst    int
	At      time.Duration
	NotifAt time.Duration
	// Online: the subscriber held a session from before the publication
	// was sent until the delivery, and the pool retrieved it on a push.
	Online bool
}

type verdict struct {
	Attempted int
	Failed    int
	// The five ways a pair fails; a pair is counted once in Failed even
	// when it fails in several ways.
	Missing, Duplicated, Reordered, Late, Spurious int
	Delivered                                      []delivered
	// FirstFailure describes one failed pair for the log.
	FirstFailure string
}

type pairKey struct{ inst, pub int }

// judge compares what arrived with what the generator's inputs require.
func judge(in oracleInput) verdict {
	var v verdict
	pubByID := make(map[int]*pubInfo, len(in.Pubs))
	for i := range in.Pubs {
		pubByID[in.Pubs[i].ID] = &in.Pubs[i]
	}
	instBySig := make(map[int][]int)
	for i, inst := range in.Instances {
		instBySig[inst.Sig] = append(instBySig[inst.Sig], i)
	}
	sessBySub := make(map[int][]sessionSpan)
	for _, s := range in.Sessions {
		sessBySub[s.Subscriber] = append(sessBySub[s.Subscriber], s)
	}
	// sessionAt returns the session of subscriber that was up at t.
	sessionAt := func(subscriber int, t time.Duration) (sessionSpan, bool) {
		for _, s := range sessBySub[subscriber] {
			if s.Online <= t && t < s.Offline {
				return s, true
			}
		}
		return sessionSpan{}, false
	}

	failed := make(map[pairKey]bool)
	fail := func(k pairKey, counter *int, why string) {
		*counter++
		if !failed[k] {
			failed[k] = true
			v.Failed++
			if v.FirstFailure == "" {
				inst := in.Instances[k.inst]
				v.FirstFailure = fmt.Sprintf("%s: publication %d -> subscriber %d signature %d",
					why, k.pub, inst.Subscriber, inst.Sig)
			}
		}
	}

	// Order: within one instance's stream result timestamps never go back.
	obs := append([]observation(nil), in.Observations...)
	sort.SliceStable(obs, func(i, j int) bool {
		if obs[i].Inst != obs[j].Inst {
			return obs[i].Inst < obs[j].Inst
		}
		return obs[i].Order < obs[j].Order
	})
	seen := make(map[pairKey][]observation)
	for i, o := range obs {
		if o.Pub < in.FirstMeasured {
			continue
		}
		k := pairKey{o.Inst, o.Pub}
		seen[k] = append(seen[k], o)
		if i > 0 && obs[i-1].Inst == o.Inst && o.TS < obs[i-1].TS {
			fail(k, &v.Reordered, "out of timestamp order")
		}
	}

	// Expected pairs, from the generator's inputs alone.
	expected := make(map[pairKey]bool) // value: required (false = optional)
	for i := range in.Pubs {
		p := &in.Pubs[i]
		for _, sig := range p.Sigs {
			for _, ii := range instBySig[sig] {
				inst := in.Instances[ii]
				switch {
				case inst.SubEnd <= p.Sent && (inst.UnsubStart == forever || p.Acked+deliveryDeadline <= inst.UnsubStart):
					expected[pairKey{ii, p.ID}] = true
				case p.Acked >= inst.SubStart-deliveryDeadline && p.Sent <= inst.UnsubEnd:
					// Published while the subscribe or unsubscribe call
					// was in flight (or within the deadline of it): the
					// system may deliver it or not.
					expected[pairKey{ii, p.ID}] = false
				}
			}
		}
	}

	for k, required := range expected {
		got := seen[k]
		if len(got) == 0 {
			if required {
				v.Attempted++
				fail(k, &v.Missing, "missing")
			}
			continue
		}
		v.Attempted++
		if len(got) > 1 {
			fail(k, &v.Duplicated, "duplicated after client dedup")
		}
		o := got[0]
		p := pubByID[k.pub]
		inst := in.Instances[k.inst]
		sess, up := sessionAt(inst.Subscriber, p.Sent)
		if up && sess.Offline >= p.Due+deliveryDeadline && o.At > p.Due+deliveryDeadline {
			fail(k, &v.Late, "later than the deadline")
		}
		v.Delivered = append(v.Delivered, delivered{
			Pub: k.pub, Inst: k.inst, At: o.At, NotifAt: o.NotifAt,
			Online: up && !o.Catchup && o.At <= sess.Offline,
		})
	}
	for k := range seen {
		if _, ok := expected[k]; !ok {
			v.Attempted++
			fail(k, &v.Spurious, "delivered but never expected")
		}
	}
	sort.Slice(v.Delivered, func(i, j int) bool {
		a, b := v.Delivered[i], v.Delivered[j]
		if a.Pub != b.Pub {
			return a.Pub < b.Pub
		}
		return a.Inst < b.Inst
	})
	return v
}
