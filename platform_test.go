package dsasim

import (
	"bytes"
	"testing"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
	"dsasim/internal/telemetry"
)

func TestSPRPlatformBasics(t *testing.T) {
	pl := NewPlatform(SPR())
	if len(pl.Devices) != 1 {
		t.Fatalf("devices = %d, want 1", len(pl.Devices))
	}
	if !pl.Devices[0].Enabled() {
		t.Fatal("device not enabled")
	}
	if pl.Node(2).Kind != mem.CXL {
		t.Fatal("SPR profile missing CXL node")
	}
	tn := pl.NewTenant()
	src := tn.Alloc(1 << 20)
	dst := tn.Alloc(1 << 20)
	sim.NewRand(1).Bytes(src.Bytes())
	pl.Run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		if !res.Hardware {
			t.Error("1MB copy should take the hardware path")
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("platform copy incomplete")
	}
}

func TestICXPlatformUsesCBDMA(t *testing.T) {
	pl := NewPlatform(ICX())
	if pl.Devices[0].Cfg.Engines != 1 {
		t.Fatalf("ICX CBDMA engines = %d, want 1", pl.Devices[0].Cfg.Engines)
	}
	if got := pl.Devices[0].Cfg.Timing.FabricGBps; got >= dsa.DefaultTiming().FabricGBps {
		t.Fatalf("CBDMA fabric %v should be below DSA's", got)
	}
	tn := pl.NewTenant()
	src := tn.Alloc(64 << 10)
	dst := tn.Alloc(64 << 10)
	pl.Run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 64<<10, offload.On(offload.Hardware))
		if err == nil {
			_, err = f.Wait(p, offload.Poll)
		}
		if err != nil {
			t.Error(err)
		}
	})
}

func TestAddDeviceCustomGroups(t *testing.T) {
	pl := NewPlatform(SPR())
	dev, err := pl.AddDevice("dsa-extra", 0, dsa.GroupConfig{
		Engines: 2,
		WQs:     []dsa.WQConfig{{Mode: dsa.Shared, Size: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dev.WQs()) != 1 || dev.WQs()[0].Mode != dsa.Shared {
		t.Fatal("custom group not applied")
	}
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(pl.Devices))
	}
}

// Each tenant is its own process workspace: a private PASID-bound address
// space.
func TestWorkspacesAreIsolated(t *testing.T) {
	pl := NewPlatform(SPR())
	t1 := pl.NewTenant()
	t2 := pl.NewTenant()
	if t1.AS.PASID == t2.AS.PASID {
		t.Fatal("tenants share a PASID")
	}
	b1 := t1.Alloc(4096)
	// t2 must not resolve t1's addresses.
	if _, _, err := t2.AS.Lookup(b1.Addr(0)); err == nil {
		t.Fatal("cross-tenant address resolved")
	}
}

func TestMultiSocketWorkspace(t *testing.T) {
	pl := NewPlatform(SPR())
	tn := pl.NewTenantOn(1)
	buf := tn.Alloc(4096)
	if buf.Node.Socket != 1 {
		t.Fatalf("socket-1 tenant allocated on socket %d", buf.Node.Socket)
	}
}

func TestTenantOffloadAPI(t *testing.T) {
	pl := NewPlatform(SPR())
	tn := pl.NewTenant()
	n := int64(1 << 20)
	src := tn.Alloc(n)
	dst := tn.Alloc(n)
	sim.NewRand(11).Bytes(src.Bytes())
	pl.Run(func(p *sim.Proc) {
		fut, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := fut.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		if !res.Hardware {
			t.Error("1MB copy should take the hardware path")
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("tenant copy incomplete")
	}
	if tn.Stats().HWOps != 1 {
		t.Fatalf("stats = %+v", tn.Stats())
	}
}

func TestTenantAllocOnCXLNode(t *testing.T) {
	pl := NewPlatform(SPR())
	tn := pl.NewTenant()
	if b := tn.AllocOn(2, 4096); b.Node.Kind != mem.CXL {
		t.Fatalf("AllocOn(2) landed on %v, want CXL", b.Node.Kind)
	}
	if b := tn.Alloc(4096); b.Node.Kind != mem.DRAM || b.Node.Socket != 0 {
		t.Fatal("default tenant allocation should land on socket-0 DRAM")
	}
}

// sprSchedElapsed builds the acceptance scenario — the SPR profile with a
// second DSA instance on socket 1 — and measures count synchronous 16KB
// copies from a socket-0 tenant under the profile's scheduler.
func sprSchedElapsed(t *testing.T, mk func() offload.Scheduler, count int) sim.Time {
	t.Helper()
	pr := SPR()
	pr.Scheduler = mk
	pl := NewPlatform(pr)
	if _, err := pl.AddDevice("dsa1", 1, dsa.GroupConfig{
		Engines: 4,
		WQs:     []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}},
	}); err != nil {
		t.Fatal(err)
	}
	tn := pl.NewTenant()
	n := int64(16 << 10)
	src := tn.Alloc(n)
	dst := tn.Alloc(n)
	var elapsed sim.Time
	pl.Run(func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < count; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
				return
			}
		}
		elapsed = p.Now() - start
	})
	return elapsed
}

// TestSPRQoSProfileWiring checks the QoS profile construction end to end:
// per-device express + bulk WQ layout, the PriorityAware scheduler, the
// adaptive-threshold default policy, and class-aware tenant steering.
func TestSPRQoSProfileWiring(t *testing.T) {
	pl := NewPlatform(SPRQoS())
	wqs := pl.Offload.WQs()
	if len(wqs) != 2 {
		t.Fatalf("SPRQoS WQs = %d, want 2 (express + bulk)", len(wqs))
	}
	var express, rest *dsa.WQ
	for _, wq := range wqs {
		if wq.Mode != dsa.Shared {
			t.Fatalf("SPRQoS WQ %d not shared-mode", wq.ID)
		}
		if wq.Priority == 15 {
			express = wq
		} else {
			rest = wq
		}
	}
	if express == nil || rest == nil {
		t.Fatal("SPRQoS device missing the express/bulk WQ split")
	}
	if got := pl.Offload.Scheduler().Name(); got != "priority-aware" {
		t.Fatalf("scheduler = %q, want priority-aware", got)
	}
	if !pl.Offload.Policy().AdaptiveThreshold {
		t.Fatal("SPRQoS default policy should adapt the offload threshold")
	}
	fg := pl.NewTenant(offload.WithClass(offload.LatencySensitive))
	bg := pl.NewTenant()
	n := int64(64 << 10)
	fsrc, fdst := fg.Alloc(n), fg.Alloc(n)
	bsrc, bdst := bg.Alloc(n), bg.Alloc(n)
	pl.Run(func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			ff, err := fg.Copy(p, fdst.Addr(0), fsrc.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			bf, err := bg.Copy(p, bdst.Addr(0), bsrc.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := ff.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
			if _, err := bf.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
	})
	if express.Submitted() != 4 {
		t.Errorf("express WQ saw %d descriptors, want the 4 latency-sensitive ops", express.Submitted())
	}
	if rest.Submitted() != 4 {
		t.Errorf("bulk WQ saw %d descriptors, want the 4 bulk ops", rest.Submitted())
	}
}

// TestSPRPlacementProfileWiring checks the placement profile end to end:
// one device per socket, the Placement scheduler, and data-home routing —
// a socket-0 tenant's copy between socket-1 buffers must land on the
// socket-1 device, and a mixed-home batch must split across both.
func TestSPRPlacementProfileWiring(t *testing.T) {
	pl := NewPlatform(SPRPlacement())
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(pl.Devices))
	}
	for i, want := range []int{0, 1} {
		if got := pl.Devices[i].Cfg.Socket; got != want {
			t.Fatalf("device %d on socket %d, want %d", i, got, want)
		}
	}
	if got := pl.Offload.Scheduler().Name(); got != "placement" {
		t.Fatalf("scheduler = %q, want placement", got)
	}
	tn := pl.NewTenant()
	n := int64(256 << 10)
	rsrc := tn.AllocOn(1, 2*n)
	rdst := tn.AllocOn(1, 2*n)
	lsrc := tn.AllocOn(0, n)
	ldst := tn.AllocOn(0, n)
	sim.NewRand(21).Bytes(rsrc.Bytes())
	sim.NewRand(22).Bytes(lsrc.Bytes())
	pl.Run(func(p *sim.Proc) {
		f, err := tn.Copy(p, rdst.Addr(0), rsrc.Addr(0), n)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
			return
		}
		// Mixed-home batch: one socket-0 copy, one socket-1 copy.
		bf, err := tn.NewBatch().
			Copy(ldst.Addr(0), lsrc.Addr(0), n).
			Copy(rdst.Addr(n), rsrc.Addr(n), n).
			Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := bf.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(rdst.Bytes(), rsrc.Bytes()) || !bytes.Equal(ldst.Bytes(), lsrc.Bytes()) {
		t.Fatal("placement-profile copies incomplete")
	}
	if got := pl.Devices[1].Cfg.Socket; got != 1 {
		t.Fatalf("device 1 socket = %d", got)
	}
	// The remote copy and the batch's socket-1 slice ride device 1.
	if got := pl.Devices[1].Stats().Submitted; got != 2 {
		t.Errorf("socket-1 device saw %d descriptors, want 2", got)
	}
	if got := pl.Devices[0].Stats().Submitted; got != 1 {
		t.Errorf("socket-0 device saw %d descriptors, want 1", got)
	}
	if got := tn.Stats().Splits; got != 2 {
		t.Errorf("Splits = %d, want 2", got)
	}
}

// TestSPRAdaptiveProfileWiring checks the closed-loop profile end to end:
// one device per socket with an express read-buffer partition, the
// placement-qos scheduler, every adaptive policy knob on, and the
// telemetry plane live (streams registered, windows advancing) after a
// burst of traffic.
func TestSPRAdaptiveProfileWiring(t *testing.T) {
	pl := NewPlatform(SPRAdaptive())
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(pl.Devices))
	}
	if got := pl.Offload.Scheduler().Name(); got != "placement-qos" {
		t.Fatalf("scheduler = %q, want placement-qos", got)
	}
	pol := pl.Offload.Policy()
	if !pol.AdaptiveThreshold || !pol.LoadAware || !pol.CoalesceAdaptive {
		t.Fatalf("adaptive knobs = (threshold %v, load %v, coalesce %v), want all on",
			pol.AdaptiveThreshold, pol.LoadAware, pol.CoalesceAdaptive)
	}
	if pol.Wait != offload.Interrupt {
		t.Fatalf("default wait mode = %v, want Interrupt", pol.Wait)
	}
	for i, dev := range pl.Devices {
		g := dev.Groups()[0]
		if g.ExpressBufs != 24 {
			t.Fatalf("device %d express share = %d, want 24", i, g.ExpressBufs)
		}
	}
	tn := pl.NewTenant()
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	sim.NewRand(41).Bytes(src.Bytes())
	pl.Run(func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, pol.Wait); err != nil {
				t.Error(err)
			}
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("adaptive-profile copies incomplete")
	}
	hub := pl.Offload.Telemetry()
	if hub == nil {
		t.Fatal("platform service exposes no telemetry hub")
	}
	var sawLat bool
	for id := 0; id < hub.Streams(); id++ {
		if hub.Digest(telemetry.ID(id)).Count() > 0 {
			sawLat = true
			break
		}
	}
	if !sawLat {
		t.Error("no telemetry stream recorded any samples after traffic")
	}
}

// Scheduler comparison on the real SPR profile with one device per socket:
// NUMA-local placement must deliver at least round-robin's throughput for
// a socket-local workload (Fig 6a's remote-placement penalty).
func TestSchedulerComparisonOnSPR(t *testing.T) {
	const count = 100
	rr := sprSchedElapsed(t, func() offload.Scheduler { return offload.NewRoundRobin() }, count)
	local := sprSchedElapsed(t, func() offload.Scheduler { return offload.NewNUMALocal() }, count)
	if local > rr {
		t.Fatalf("NUMALocal (%v) slower than RoundRobin (%v) on the 2-device SPR platform", local, rr)
	}
}
