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
	if got, want := sv.Topology().QueueDelay(0), sim.Time(60*time.Millisecond); got != want {
		t.Errorf("socket 0 queue delay %v, want %v (6 queued × one 10ms completion)", got, want)
	}
	if got := pl.Pick(req, sv.WQs()); got != wq1 {
		t.Errorf("pick after a 10ms completion behind 6 queued = wq on socket %d, want the idle socket", got.Dev.Cfg.Socket)
	}
}
