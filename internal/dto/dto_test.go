package dto

import (
	"bytes"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

type rig struct {
	e    *sim.Engine
	as   *mem.AddressSpace
	node *mem.Node
	tn   *offload.Tenant
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 1,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
	dev := dsa.New(e, sys, dsa.DefaultConfig("dsa0", 0))
	if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Shared, Size: 32}}}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	svc, err := offload.NewService(e, sys, dev.WQs())
	if err != nil {
		t.Fatal(err)
	}
	tn, err := svc.NewTenant(offload.TenantPolicy(Policy()))
	if err != nil {
		t.Fatal(err)
	}
	return &rig{e: e, as: tn.AS, node: sys.Node(0), tn: tn}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.e.Go("test", fn)
	r.e.Run()
}

// memcpy copies n bytes through the tenant's Auto path and waits for it,
// as an intercepted memcpy() call does.
func (r *rig) memcpy(t *testing.T, p *sim.Proc, dst, src mem.Addr, n int64) {
	t.Helper()
	f, err := r.tn.Copy(p, dst, src, n)
	if err == nil {
		_, err = f.Wait(p, r.tn.Policy().Wait)
	}
	if err != nil {
		t.Error(err)
	}
}

// The 4 KB copy stays on the core only because the DTO policy raises the
// threshold to 8 KB (the default policy offloads at 4 KB); the 64 KB copy
// is offloaded.
func TestThresholdRouting(t *testing.T) {
	r := newRig(t)
	small := r.as.Alloc(4096, mem.OnNode(r.node))
	big := r.as.Alloc(64<<10, mem.OnNode(r.node))
	dstS := r.as.Alloc(4096, mem.OnNode(r.node))
	dstB := r.as.Alloc(64<<10, mem.OnNode(r.node))
	sim.NewRand(1).Bytes(small.Bytes())
	sim.NewRand(2).Bytes(big.Bytes())

	r.run(t, func(p *sim.Proc) {
		r.memcpy(t, p, dstS.Addr(0), small.Addr(0), 4096)
		r.memcpy(t, p, dstB.Addr(0), big.Addr(0), 64<<10)
	})
	if st := r.tn.Stats(); st.SWOps != 1 || st.HWOps != 1 {
		t.Fatalf("routing: %d core / %d offloaded copies, want 1 / 1", st.SWOps, st.HWOps)
	}
	if !bytes.Equal(dstS.Bytes(), small.Bytes()) || !bytes.Equal(dstB.Bytes(), big.Bytes()) {
		t.Fatal("copies incomplete")
	}
}

func TestPageFaultRedoneOnCPU(t *testing.T) {
	// Appendix B: "the core would redo offloaded operations when
	// encountering page faults during DSA offloading".
	r := newRig(t)
	src := r.as.Alloc(64<<10, mem.OnNode(r.node))
	dst := r.as.Alloc(64<<10, mem.OnNode(r.node), mem.Lazy())
	sim.NewRand(4).Bytes(src.Bytes())
	r.run(t, func(p *sim.Proc) {
		r.memcpy(t, p, dst.Addr(0), src.Addr(0), 64<<10)
	})
	if st := r.tn.Stats(); st.Faults != 1 || st.Fallbacks != 1 {
		t.Fatalf("faults=%d fallbacks=%d, want the one fault redone on the core", st.Faults, st.Fallbacks)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("fallback copy incomplete")
	}
}
