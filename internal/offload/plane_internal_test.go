package offload

import (
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// A ring's backlog counts toward its WQ's load, which the scheduler's
// least-loaded pick reads: with one ring pre-loaded out of band, as a
// sibling lane's burst would, new submissions spread to the emptier ring,
// and a WQ's own backlog counts the same as its ring's. The rig runs the
// Placement scheduler, least-loaded within the socket.
func TestPlaneRoutingLeastLoaded(t *testing.T) {
	r := newWQRig(t, 1, 1, []dsa.WQConfig{{Mode: dsa.Shared, Size: 32}, {Mode: dsa.Shared, Size: 32}})
	pl := r.pl
	for i := 0; i < 6; i++ {
		if !pl.rings[0].TryPush(dsa.Descriptor{Op: dsa.OpNop}, 0) {
			t.Fatal("pre-load push failed")
		}
	}
	for i := 0; i < 6; i++ {
		if !r.push(r.d) {
			t.Fatal("push found the ring full")
		}
	}
	if got := pl.rings[1].Len(); got != 6 {
		t.Errorf("ring 1 holds %d entries, want all 6 routed around the backlog", got)
	}
	// One more entry in WQ 1 makes it the longer queue: 6+1 against 6.
	if _, err := pl.wqs[1].Submit(r.d); err != nil {
		t.Fatal(err)
	}
	for start := range pl.wqs {
		if got := pl.pick(&r.d); got != 0 {
			t.Errorf("pick %d routed to ring %d, want 0 (6 queued against 6+1)", start, got)
		}
	}
}

// A drain that sheds the last outstanding entry, with every ring dead in
// a device outage, wakes a WaitInflight barrier as the last completion
// does, instead of leaving the waiter parked for good.
func TestPlaneShedWakesWaitInflight(t *testing.T) {
	outage := dsa.FaultConfig{Outages: []dsa.Outage{{At: sim.Time(500 * time.Nanosecond), Dur: sim.Time(100 * time.Microsecond)}}}
	r := newRingRig(t, 1, 8, 1, outage)
	var failed int
	r.pl.OnCompletion(func(_ sim.Time, ok bool) {
		if !ok {
			failed++
		}
	})
	woke := sim.Time(-1)
	r.e.Go("submitter", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(time.Microsecond))
		if err := r.pl.Lane(0).Submit(p, r.d); err != nil {
			t.Error(err)
			return
		}
		r.pl.WaitInflight(p, 0)
		woke = p.Now()
	})
	r.e.Run()
	if woke < 0 || woke >= sim.Time(100*time.Microsecond) {
		t.Errorf("WaitInflight returned at %v, want at the shed, inside the outage", woke)
	}
	if s := r.tn.Stats(); failed != 1 || s.Failures != 1 || s.Failovers != 1 {
		t.Errorf("failed %d, stats %d failures / %d failovers, want 1/1/1", failed, s.Failures, s.Failovers)
	}
	if r.pl.Pending() != 0 || r.pl.Inflight() != 0 {
		t.Errorf("after run: pending %d inflight %d, want 0/0", r.pl.Pending(), r.pl.Inflight())
	}
}

// An entry the WQ refuses for good, here a copy past the device's
// MaxTransfer, ends failed in the drain pass that finds it: counted in
// Failures, seen by the OnCompletion observer, and off the books, so a
// WaitInflight barrier wakes. Mistaken for a full WQ, it would be re-tried
// every PollGap and never end.
func TestPlaneRefusedEntryEnds(t *testing.T) {
	r := newRingRig(t, 1, 8, 1)
	big := r.d
	big.Size = r.devs[0].Cfg.MaxTransfer + 4096
	_, failed := countEnds(r)
	woke := sim.Time(-1)
	r.e.Go("submitter", func(p *sim.Proc) {
		if err := r.pl.Lane(0).Submit(p, big); err != nil {
			t.Error(err)
			return
		}
		r.pl.WaitInflight(p, 0)
		woke = p.Now()
	})
	r.e.RunUntil(sim.Time(time.Millisecond))
	if woke < 0 {
		t.Fatalf("WaitInflight still parked after 1ms: pending %d, inflight %d, %d events scheduled",
			r.pl.Pending(), r.pl.Inflight(), r.e.Scheduled())
	}
	if s := r.tn.Stats(); *failed != 1 || s.Failures != 1 || s.Failovers != 0 {
		t.Errorf("failed %d, stats %d failures / %d failovers, want 1/1/0", *failed, s.Failures, s.Failovers)
	}
	if r.pl.Pending() != 0 || r.pl.Inflight() != 0 {
		t.Errorf("after run: pending %d inflight %d, want 0/0", r.pl.Pending(), r.pl.Inflight())
	}
}
