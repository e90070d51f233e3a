package offload

import (
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// A completion is priced the moment the probe records it: adaptive
// coalescing's inter-arrival gap, QoS pressure and a load-aware placement
// pick all read it at once, and none of them syncs the telemetry hub.
func TestCompletionPricedWithoutSync(t *testing.T) {
	r := newRingRig(t, 2, 8, 1)
	sv, m := r.svc, r.svc.met
	wq0, wq1 := sv.WQs()[0], sv.WQs()[1]
	pasid := r.tn.AS.PASID

	r.e.Go("completions", func(p *sim.Proc) {
		m.Completed(wq1, p.Now(), pasid, 1000)
		p.Sleep(700)
		m.Completed(wq1, p.Now(), pasid, 1000)
		if got := m.tenantGap(pasid); got != 700 {
			t.Errorf("tenant gap %v after completions 700ns apart, want 700ns", got)
		}
	})
	r.e.Run()

	// One occupancy sample seeds wq0's EWMA at 6/8; wq1 is idle.
	m.WQOccupancy(wq0, r.e.Now(), 6, 8)
	if got := sv.Pressure(); got != 0.375 {
		t.Errorf("pressure %v after one 6/8 occupancy sample on one of two WQs, want 0.375", got)
	}

	// Six descriptors wait on wq0, the data's home. Without a completion
	// there the backlog is unpriced and the pick stays home; one slow
	// completion prices it, and the same pick detours to the idle socket.
	for i := 0; i < 6; i++ {
		if _, err := wq0.Submit(dsa.Descriptor{Op: dsa.OpNop, PASID: pasid}); err != nil {
			t.Fatal(err)
		}
	}
	node := sv.Sys.Node(0)
	req := Request{Socket: 0, Topo: sv.Topology(), SrcNode: node, DstNode: node, LoadAware: true, Size: 64 << 10}
	pl := NewPlacement()
	if got := pl.Pick(req, sv.WQs()); got != wq0 {
		t.Fatalf("pick with no latency history = wq on socket %d, want the data's home", got.Dev.Cfg.Socket)
	}
	m.Completed(wq0, r.e.Now(), pasid, sim.Time(10*time.Millisecond))
	topo := sv.Topology()
	if got, want := topo.queueDelayOf(topo.Local(0)), sim.Time(60*time.Millisecond); got != want {
		t.Errorf("socket 0 queue delay %v, want %v (6 queued × one 10ms completion)", got, want)
	}
	if got := pl.Pick(req, sv.WQs()); got != wq1 {
		t.Errorf("pick after a 10ms completion behind 6 queued = wq on socket %d, want the idle socket", got.Dev.Cfg.Socket)
	}

	// Entries waiting in the plane ring that feeds wq0 queue ahead of a
	// new arrival as surely as the descriptors the WQ holds, so the priced
	// delay counts them (WQ.Load, not Occupancy).
	for i := 0; i < 2; i++ {
		if !r.pl.rings[0].TryPush(r.d, 0) {
			t.Fatal("feeding ring full")
		}
	}
	if got, want := topo.queueDelayOf(topo.Local(0)), sim.Time(80*time.Millisecond); got != want {
		t.Errorf("socket 0 queue delay %v with 2 more in its feeding ring, want %v (8 queued × one 10ms completion)", got, want)
	}
}

// Pipeline placement stays allocation-free: route, pricing a chain's
// fixed legs on every submission, and the pinned-socket Pick the chains
// are then submitted with must not allocate.
func TestPipelinePlacementZeroAllocs(t *testing.T) {
	r := newRingRig(t, 2, 8, 1)
	topo, wqs := r.svc.Topology(), r.svc.WQs()
	legs := []PipelineLeg{
		{Node: r.svc.Sys.Node(0), Size: 4096},
		{Node: r.svc.Sys.Node(1), Size: 4096, Write: true},
	}
	chain := func(legs []PipelineLeg) Request {
		return Request{Socket: 0, LoadAware: true, Topo: topo, legs: legs}
	}
	if got := NewPlacement().route(chain(legs[:1]), 0); got != 0 {
		t.Fatalf("single local leg placed on socket %d, want 0", got)
	}
	if got := NewPlacement().route(chain(legs[1:]), 0); got != 1 {
		t.Fatalf("single remote write leg placed on socket %d, want 1", got)
	}
	sched := NewPlacement()
	req := chain(legs)
	pinned := Request{Socket: 1, Topo: topo, Size: 4096}
	sched.route(req, 0) // warm: sizes the hysteresis tables
	sched.Pick(pinned, wqs)
	allocs := testing.AllocsPerRun(200, func() {
		if sched.route(req, 0) < 0 {
			t.Fatal("no socket")
		}
		if sched.Pick(pinned, wqs) == nil {
			t.Fatal("nil WQ")
		}
	})
	if allocs != 0 {
		t.Errorf("pipeline placement allocated %.1f times per run, want 0", allocs)
	}
}
