package offload

import (
	"testing"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// The placement load view folds each WQ's latency EWMA as completions are
// recorded; once the shards merge, it equals the digest's EWMA exactly.
func TestLoadViewMatchesDigestEWMA(t *testing.T) {
	r := newRingRig(t, 2, 8, 1)
	m := r.svc.met
	m.hub.SetSyncCadence(0) // every Sync merges, not one per plane cadence
	wqs := r.svc.WQs()
	rng := sim.NewRand(7)
	var at sim.Time
	for i := 0; i < 5000; i++ {
		at += sim.Time(rng.Intn(400))
		wq := wqs[rng.Intn(len(wqs))]
		var lat sim.Time
		if rng.Intn(10) > 0 { // a zero latency records no sample
			lat = sim.Time(1 + rng.Intn(20000))
		}
		m.Completed(wq, at, r.tn.AS.PASID, lat)
		if rng.Intn(50) == 0 {
			m.hub.Sync(at)
			checkLoadView(t, m, wqs)
		}
	}
	m.hub.Sync(at)
	checkLoadView(t, m, wqs)
}

func checkLoadView(t *testing.T, m *metrics, wqs []*dsa.WQ) {
	t.Helper()
	for _, wq := range wqs {
		if live, merged := m.latLive(wq), m.latEWMA(wq); live != merged {
			t.Fatalf("wq %s.%d: live view %v, digest EWMA %v after Sync", wq.Dev.Cfg.Name, wq.ID, live, merged)
		}
	}
}

// A load-aware placement pick reads the live view and merges nothing: a
// completion still buffered in the device shard stays there, yet the
// pick already prices it.
func TestPickLeavesBufferedSampleUnmerged(t *testing.T) {
	r := newRingRig(t, 2, 8, 1)
	m := r.svc.met
	wq := r.svc.WQs()[0]
	lat := m.hub.Digest(m.wq[wq].lat)
	m.Completed(wq, r.e.Now(), r.tn.AS.PASID, 1500)
	topo := r.svc.Topology()
	node := r.svc.Sys.Node(0)
	req := Request{Socket: 0, Topo: topo, SrcNode: node, DstNode: node, LoadAware: true, Size: 64 << 10}
	NewPlacement().Pick(req, r.svc.WQs())
	if n := lat.Count(); n != 0 {
		t.Errorf("pick merged %d buffered samples into the latency digest, want 0", n)
	}
	if got := m.latLive(wq); got != 1500 {
		t.Errorf("live view %v after one 1.5µs completion, want 1.5µs", got)
	}
	m.hub.Sync(r.e.Now())
	if n := lat.Count(); n != 1 {
		t.Errorf("Sync merged %d samples, want 1", n)
	}
}
