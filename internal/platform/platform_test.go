package platform

import (
	"testing"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// The socket count comes from the profile's nodes: SPR is the two-socket
// machine with a CXL node, and its first node alone (the accel-config and
// caching shape) is a one-socket machine.
func TestSystemSocketsFromNodes(t *testing.T) {
	sys := SPR().System(sim.New())
	if len(sys.Sockets) != 2 || len(sys.Nodes) != 3 {
		t.Fatalf("SPR: %d sockets, %d nodes; want 2 and 3", len(sys.Sockets), len(sys.Nodes))
	}
	if sys.Node(2).Kind != mem.CXL || sys.Node(2).Socket != 0 {
		t.Fatalf("SPR node 2 = %v on socket %d, want CXL on socket 0", sys.Node(2).Kind, sys.Node(2).Socket)
	}

	pr := SPR()
	pr.Nodes = pr.Nodes[:1]
	sys = pr.System(sim.New())
	if len(sys.Sockets) != 1 || len(sys.Nodes) != 1 {
		t.Fatalf("one-node profile: %d sockets, %d nodes; want 1 and 1", len(sys.Sockets), len(sys.Nodes))
	}
}

// Empty Groups gives each device one group with all of its engines and one
// 32-entry dedicated WQ; DeviceSockets and the name template place and name
// the devices.
func TestNewDevicesDefaultLayout(t *testing.T) {
	pr := SPRPlacement()
	e := sim.New()
	devs, err := pr.NewDevices(e, pr.System(e))
	if err != nil {
		t.Fatal(err)
	}
	for i, dev := range devs {
		if want := []string{"dsa0", "dsa1"}[i]; dev.Cfg.Name != want || dev.Cfg.Socket != i {
			t.Fatalf("device %d = %s on socket %d, want %s on socket %d", i, dev.Cfg.Name, dev.Cfg.Socket, want, i)
		}
		wqs := dev.WQs()
		if !dev.Enabled() || len(wqs) != 1 || wqs[0].Mode != dsa.Dedicated || wqs[0].Size != 32 {
			t.Fatalf("%s: enabled=%v wqs=%d, want one enabled 32-entry dedicated WQ", dev.Cfg.Name, dev.Enabled(), len(wqs))
		}
	}
	if len(devs) != 2 {
		t.Fatalf("devices = %d, want 2", len(devs))
	}
}

// A device hot-plugged after a tenant built its submission plane has no
// ring. The plane keeps picking over the WQs and placement index it was
// built on, so under schedulers that would send work to the new device
// every lane submission still completes on the plane's rings.
func TestAddDeviceAfterPlaneKeepsLanesOnRings(t *testing.T) {
	for _, sched := range []func() offload.Scheduler{
		func() offload.Scheduler { return offload.NewRoundRobin() },
		func() offload.Scheduler { return offload.NewLeastLoaded() },
		func() offload.Scheduler { return offload.NewNUMALocal() },
		func() offload.Scheduler { return offload.NewPlacementQoS() },
	} {
		pr := SPRQoS()
		pr.Scheduler = sched
		pl := NewPlatform(pr)
		name := pl.Offload.Scheduler().Name()
		tn := pl.NewTenant(offload.WithClass(offload.Bulk))
		plane, err := tn.NewPlane(2)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := pl.AddDevice("dsa-hot", 0)
		if err != nil {
			t.Fatal(err)
		}
		const ops = 16
		var ok, failed int
		plane.OnCompletion(func(_ sim.Time, good bool) {
			if good {
				ok++
			} else {
				failed++
			}
		})
		src, dst := tn.Alloc(4096), tn.Alloc(4096)
		d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
		pl.Run(func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				if err := plane.Lane(i%plane.Lanes()).Submit(p, d); err != nil {
					t.Errorf("%s: lane submit %d: %v", name, i, err)
					return
				}
			}
			plane.WaitInflight(p, 0)
		})
		if ok != ops || failed != 0 {
			t.Errorf("%s: %d ok, %d failed, want all %d ok", name, ok, failed, ops)
		}
		var accepted int64
		for _, wq := range plane.WQs() {
			accepted += wq.Submitted()
		}
		if accepted != ops {
			t.Errorf("%s: the plane's WQs accepted %d descriptors, want %d", name, accepted, ops)
		}
		for _, wq := range hot.WQs() {
			if n := wq.Submitted(); n != 0 {
				t.Errorf("%s: hot-plugged WQ %d, which has no ring, accepted %d descriptors", name, wq.ID, n)
			}
		}
	}
}
