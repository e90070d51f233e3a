package offload

import (
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// Under a data-aware scheduler a lane routes each descriptor to the QoS
// class pool on its data-home socket, as Placement does for a Future: the
// bulk tenant on socket 0 sends a socket-1 copy to socket 1's rest WQ, a
// copy that straddles the sockets to the side dataSocket picks, and a
// copy homed on a dead device to a live ring. Under a scheduler blind to
// data homes (PriorityAware) the lane keeps the tenant's socket.
func TestPlaneRoutesByDataHome(t *testing.T) {
	// Per device: an express WQ (top priority) and a rest WQ, so the bulk
	// tenant's pool on each socket is the rest WQ alone.
	cfg := []dsa.WQConfig{{Mode: dsa.Shared, Size: 32, Priority: 8}, {Mode: dsa.Shared, Size: 32, Priority: 2}}
	const restWQ = 1
	// submitted runs one copy from socket src to socket dst through lane
	// 0, and returns the device and WQ index that accepted it.
	submitted := func(t *testing.T, r *ringRig, src, dst int) (dev, wq int) {
		t.Helper()
		n := int64(4096)
		d := dsa.Descriptor{Op: dsa.OpMemmove, Src: r.tn.AllocOn(src, n).Addr(0), Dst: r.tn.AllocOn(dst, n).Addr(0), Size: n}
		before := acceptedBy(r)
		failed := 0
		r.pl.OnCompletion(func(_ sim.Time, ok bool) {
			if !ok {
				failed++
			}
		})
		r.e.Go("submitter", func(p *sim.Proc) {
			p.SleepUntil(r.e.Now() + sim.Time(time.Microsecond))
			if err := r.pl.Lane(0).Submit(p, d); err != nil {
				t.Error(err)
				return
			}
			r.pl.WaitInflight(p, 0)
		})
		r.e.Run()
		if failed != 0 {
			t.Fatalf("copy %d -> %d failed", src, dst)
		}
		dev, wq = -1, -1
		for i, n := range acceptedBy(r) {
			if n != before[i] {
				if dev >= 0 {
					t.Fatalf("copy %d -> %d accepted twice", src, dst)
				}
				dev, wq = i/len(cfg), i%len(cfg)
			}
		}
		if dev < 0 {
			t.Fatalf("copy %d -> %d accepted by no WQ", src, dst)
		}
		return dev, wq
	}

	t.Run("home", func(t *testing.T) {
		r := newSchedRig(t, NewPlacementQoS(), 2, 1, cfg)
		if r.tn.Core.Socket != 0 {
			t.Fatalf("bulk tenant on socket %d, want 0", r.tn.Core.Socket)
		}
		if dev, wq := submitted(t, r, 1, 1); dev != 1 || wq != restWQ {
			t.Errorf("socket-1 copy accepted by device %d WQ %d, want socket 1's rest WQ", dev, wq)
		}
		for _, c := range [][2]int{{0, 1}, {1, 0}} {
			src, dst := c[0], c[1]
			want, ok := dataSocket(r.svc.Sys.Node(src), r.svc.Sys.Node(dst))
			if !ok {
				t.Fatal("dataSocket placed no straddling pair")
			}
			if dev, wq := submitted(t, r, src, dst); dev != want || wq != restWQ {
				t.Errorf("copy %d -> %d accepted by device %d WQ %d, want socket %d's rest WQ", src, dst, dev, wq, want)
			}
		}
	})

	t.Run("dead home", func(t *testing.T) {
		outage := dsa.FaultConfig{Outages: []dsa.Outage{{At: 0, Dur: sim.Time(time.Millisecond)}}}
		r := newSchedRig(t, NewPlacementQoS(), 2, 1, cfg, dsa.FaultConfig{}, outage)
		if dev, _ := submitted(t, r, 1, 1); dev != 0 {
			t.Errorf("copy homed on the dead device accepted by device %d, want the live device 0", dev)
		}
	})

	t.Run("blind scheduler", func(t *testing.T) {
		r := newSchedRig(t, NewPriorityAware(), 2, 1, cfg)
		if dev, wq := submitted(t, r, 1, 1); dev != 0 || wq != restWQ {
			t.Errorf("socket-1 copy under a blind scheduler accepted by device %d WQ %d, want the tenant socket's rest WQ", dev, wq)
		}
	})
}

// acceptedBy lists the descriptors each of the rig's WQs accepted, device
// by device.
func acceptedBy(r *ringRig) []int64 {
	var n []int64
	for _, dev := range r.devs {
		for _, wq := range dev.WQs() {
			n = append(n, wq.Submitted())
		}
	}
	return n
}
