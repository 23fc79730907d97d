package main

import (
	"testing"
	"time"
)

const msec = time.Millisecond

// oracleScene is three publications to one signature held by two
// subscribers who are online for the whole window, all delivered in order
// and on time.
func oracleScene() oracleInput {
	in := oracleInput{
		FirstMeasured: 10,
		Instances: []subInstance{
			{Subscriber: 0, Sig: 7, SubStart: -time.Second, SubEnd: -time.Second + msec, UnsubStart: forever, UnsubEnd: forever},
			{Subscriber: 1, Sig: 7, SubStart: -time.Second, SubEnd: -time.Second + msec, UnsubStart: forever, UnsubEnd: forever},
		},
		Sessions: []sessionSpan{
			{Subscriber: 0, Online: -2 * time.Second, Offline: forever},
			{Subscriber: 1, Online: -2 * time.Second, Offline: forever},
		},
	}
	for i := 0; i < 3; i++ {
		due := time.Duration(i) * 100 * msec
		in.Pubs = append(in.Pubs, pubInfo{ID: 10 + i, Due: due, Sent: due, Acked: due + msec, Sigs: []int{7}})
		for inst := 0; inst < 2; inst++ {
			in.Observations = append(in.Observations, observation{Inst: inst, Order: i, Pub: 10 + i,
				TS: int64(1000 + i), At: due + 5*msec, NotifAt: due + 2*msec})
		}
	}
	return in
}

func TestOracleInjectedFaults(t *testing.T) {
	tests := []struct {
		name   string
		break_ func(in *oracleInput)
		check  func(t *testing.T, v verdict)
	}{
		{"clean run", func(*oracleInput) {}, func(t *testing.T, v verdict) {
			if v.Attempted != 6 || v.Failed != 0 || len(v.Delivered) != 6 {
				t.Errorf("attempted %d failed %d delivered %d, want 6 0 6", v.Attempted, v.Failed, len(v.Delivered))
			}
			for _, d := range v.Delivered {
				if !d.Online {
					t.Errorf("delivery %+v not classed online", d)
				}
			}
		}},
		{"one delivery dropped", func(in *oracleInput) {
			in.Observations = append(in.Observations[:3], in.Observations[4:]...)
		}, func(t *testing.T, v verdict) {
			if v.Missing != 1 || v.Failed != 1 || v.Attempted != 6 {
				t.Errorf("missing %d failed %d attempted %d, want 1 1 6", v.Missing, v.Failed, v.Attempted)
			}
		}},
		{"one delivery duplicated", func(in *oracleInput) {
			dup := in.Observations[2]
			dup.Order = 99
			in.Observations = append(in.Observations, dup)
		}, func(t *testing.T, v verdict) {
			if v.Duplicated != 1 || v.Failed != 1 {
				t.Errorf("duplicated %d failed %d, want 1 1", v.Duplicated, v.Failed)
			}
		}},
		{"two deliveries reordered", func(in *oracleInput) {
			// Subscriber 0 receives publication 12's result before 11's.
			for i := range in.Observations {
				o := &in.Observations[i]
				if o.Inst == 0 && o.Pub == 11 {
					o.Order = 2
				} else if o.Inst == 0 && o.Pub == 12 {
					o.Order = 1
				}
			}
		}, func(t *testing.T, v verdict) {
			if v.Reordered != 1 || v.Failed != 1 {
				t.Errorf("reordered %d failed %d, want 1 1", v.Reordered, v.Failed)
			}
		}},
		{"one delivery after the deadline", func(in *oracleInput) {
			in.Observations[5].At = in.Pubs[2].Due + deliveryDeadline + msec
		}, func(t *testing.T, v verdict) {
			if v.Late != 1 || v.Failed != 1 {
				t.Errorf("late %d failed %d, want 1 1", v.Late, v.Failed)
			}
		}},
		{"delivery nobody was owed", func(in *oracleInput) {
			in.Instances = append(in.Instances, subInstance{Subscriber: 0, Sig: 8, SubStart: -time.Second,
				SubEnd: -time.Second, UnsubStart: forever, UnsubEnd: forever})
			in.Observations = append(in.Observations, observation{Inst: 2, Pub: 10, TS: 1000, At: 5 * msec})
		}, func(t *testing.T, v verdict) {
			if v.Spurious != 1 || v.Failed != 1 || v.Attempted != 7 {
				t.Errorf("spurious %d failed %d attempted %d, want 1 1 7", v.Spurious, v.Failed, v.Attempted)
			}
		}},
		{"a pair that fails twice counts once", func(in *oracleInput) {
			dup := in.Observations[5]
			dup.Order = 99
			in.Observations = append(in.Observations, dup)
			in.Observations[5].At = in.Pubs[2].Due + deliveryDeadline + msec
		}, func(t *testing.T, v verdict) {
			if v.Duplicated != 1 || v.Late != 1 || v.Failed != 1 {
				t.Errorf("duplicated %d late %d failed %d, want 1 1 1", v.Duplicated, v.Late, v.Failed)
			}
		}},
		{"warm-up rows are not judged", func(in *oracleInput) {
			in.Observations = append(in.Observations, observation{Inst: 0, Order: -1, Pub: 3, TS: 900, At: -time.Second})
		}, func(t *testing.T, v verdict) {
			if v.Attempted != 6 || v.Failed != 0 {
				t.Errorf("attempted %d failed %d, want 6 0", v.Attempted, v.Failed)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			in := oracleScene()
			tc.break_(&in)
			tc.check(t, judge(in))
		})
	}
}

// TestOracleChurn covers what only churn_miss produces: offline
// subscribers, catch-up deliveries, and publications racing a subscribe or
// an unsubscribe.
func TestOracleChurn(t *testing.T) {
	inst := subInstance{Subscriber: 0, Sig: 1, SubStart: 100 * msec, SubEnd: 101 * msec,
		UnsubStart: 10 * time.Second, UnsubEnd: 10*time.Second + msec}
	pub := func(id int, at time.Duration) pubInfo {
		return pubInfo{ID: id, Due: at, Sent: at, Acked: at + msec, Sigs: []int{1}}
	}
	base := oracleInput{
		FirstMeasured: 1,
		Instances:     []subInstance{inst},
		Sessions: []sessionSpan{
			{Subscriber: 0, Online: 0, Offline: 3 * time.Second},
			{Subscriber: 0, Online: 6 * time.Second, Offline: forever},
		},
	}

	t.Run("published while offline, caught up at login, no deadline", func(t *testing.T) {
		in := base
		in.Pubs = []pubInfo{pub(1, 4*time.Second)}
		in.Observations = []observation{{Inst: 0, Pub: 1, TS: 5, At: 6 * time.Second, NotifAt: noNotif, Catchup: true}}
		v := judge(in)
		if v.Failed != 0 || len(v.Delivered) != 1 || v.Delivered[0].Online {
			t.Errorf("verdict %+v, want one catch-up delivery and no failure", v)
		}
	})
	t.Run("published while offline and never delivered is missing", func(t *testing.T) {
		in := base
		in.Pubs = []pubInfo{pub(1, 4*time.Second)}
		if v := judge(in); v.Missing != 1 {
			t.Errorf("missing %d, want 1", v.Missing)
		}
	})
	t.Run("online throughout but only the final catch-up found it: late", func(t *testing.T) {
		in := base
		in.Pubs = []pubInfo{pub(1, 500*msec)}
		in.Observations = []observation{{Inst: 0, Pub: 1, TS: 5, At: 6 * time.Second, NotifAt: noNotif, Catchup: true}}
		if v := judge(in); v.Late != 1 {
			t.Errorf("late %d, want 1", v.Late)
		}
	})
	t.Run("logged out inside the deadline: the later catch-up is on time", func(t *testing.T) {
		in := base
		in.Pubs = []pubInfo{pub(1, 2500*msec)}
		in.Observations = []observation{{Inst: 0, Pub: 1, TS: 5, At: 6 * time.Second, NotifAt: noNotif, Catchup: true}}
		if v := judge(in); v.Failed != 0 {
			t.Errorf("failed %d (%s), want 0", v.Failed, v.FirstFailure)
		}
	})
	t.Run("published while the subscribe call was in flight: either outcome passes", func(t *testing.T) {
		in := base
		in.Pubs = []pubInfo{pub(1, 100*msec)}
		if v := judge(in); v.Failed != 0 || v.Attempted != 0 {
			t.Errorf("undelivered: attempted %d failed %d, want 0 0", v.Attempted, v.Failed)
		}
		in.Observations = []observation{{Inst: 0, Pub: 1, TS: 5, At: 110 * msec, NotifAt: 105 * msec}}
		if v := judge(in); v.Failed != 0 || v.Attempted != 1 {
			t.Errorf("delivered: attempted %d failed %d, want 1 0", v.Attempted, v.Failed)
		}
	})
	t.Run("published long before the subscribe: delivering it is spurious", func(t *testing.T) {
		in := base
		in.Instances = []subInstance{{Subscriber: 0, Sig: 1, SubStart: 5 * time.Second, SubEnd: 5*time.Second + msec,
			UnsubStart: forever, UnsubEnd: forever}}
		in.Pubs = []pubInfo{pub(1, 100*msec)}
		in.Observations = []observation{{Inst: 0, Pub: 1, TS: 5, At: 6 * time.Second}}
		if v := judge(in); v.Spurious != 1 {
			t.Errorf("spurious %d, want 1", v.Spurious)
		}
	})
	t.Run("published within the deadline of an unsubscribe: optional", func(t *testing.T) {
		in := base
		in.Pubs = []pubInfo{pub(1, 9*time.Second)}
		if v := judge(in); v.Failed != 0 {
			t.Errorf("failed %d, want 0", v.Failed)
		}
	})
}
