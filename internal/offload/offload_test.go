package offload_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// rig is a two-socket SPR-like system with one DSA device per socket.
type rig struct {
	e    *sim.Engine
	sys  *mem.System
	devs []*dsa.Device
}

// newRig builds the system. wqcfg defaults to one 32-entry dedicated WQ
// with four engines per device.
func newRig(t *testing.T, sockets int, wqcfg ...dsa.WQConfig) *rig {
	t.Helper()
	e := sim.New()
	nodes := []mem.NodeConfig{
		{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
	}
	if sockets > 1 {
		nodes = append(nodes, mem.NodeConfig{Socket: 1, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75})
	}
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets:  2,
		LLC:      mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:   70 * time.Nanosecond,
		UPIGBps:  62,
		NodeDefs: nodes,
	})
	if len(wqcfg) == 0 {
		wqcfg = []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}}
	}
	r := &rig{e: e, sys: sys}
	for s := 0; s < sockets; s++ {
		dev := dsa.New(e, sys, dsa.DefaultConfig("dsa", s))
		if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: wqcfg}); err != nil {
			t.Fatal(err)
		}
		if err := dev.Enable(); err != nil {
			t.Fatal(err)
		}
		r.devs = append(r.devs, dev)
	}
	return r
}

func (r *rig) wqs() []*dsa.WQ {
	var wqs []*dsa.WQ
	for _, d := range r.devs {
		wqs = append(wqs, d.WQs()...)
	}
	return wqs
}

func (r *rig) service(t *testing.T, opts ...offload.ServiceOption) *offload.Service {
	t.Helper()
	svc, err := offload.NewService(r.e, r.sys, r.wqs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func (r *rig) run(fn func(p *sim.Proc)) {
	r.e.Go("test", fn)
	r.e.Run()
}

func TestCopyRoundTripAndFutureIdempotence(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t)
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256 << 10)
	src := tn.Alloc(n)
	dst := tn.Alloc(n)
	sim.NewRand(1).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
		if err != nil {
			t.Error(err)
			return
		}
		if f.Done() {
			t.Error("256KB copy completed instantaneously")
		}
		res1, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		if !res1.Hardware {
			t.Error("above-threshold copy should take the hardware path")
		}
		// Double-Wait is idempotent: same result, no re-accounting.
		before := p.Now()
		res2, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
		}
		if !reflect.DeepEqual(res2, res1) {
			t.Errorf("second Wait returned %+v, want %+v", res2, res1)
		}
		if p.Now() != before {
			t.Error("second Wait advanced virtual time")
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("copy incomplete")
	}
}

func TestSubThresholdRunsOnCore(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t)
	tn, _ := svc.NewTenant()
	src := tn.Alloc(4096)
	dst := tn.Alloc(4096)
	r.run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 1024)
		if err != nil {
			t.Error(err)
			return
		}
		if !f.Done() {
			t.Error("software copy should complete before returning")
		}
		res, _ := f.Wait(p, offload.Poll)
		if res.Hardware {
			t.Error("1KB Auto copy should run on the core (G2)")
		}
	})
	st := tn.Stats()
	if st.SWOps != 1 || st.HWOps != 0 {
		t.Fatalf("routing = %+v", st)
	}
}

func TestWaitModesAllComplete(t *testing.T) {
	for _, mode := range []offload.WaitMode{offload.Poll, offload.UMWait, offload.Interrupt} {
		r := newRig(t, 1)
		svc := r.service(t)
		tn, _ := svc.NewTenant()
		n := int64(64 << 10)
		src := tn.Alloc(n)
		dst := tn.Alloc(n)
		sim.NewRand(3).Bytes(src.Bytes())
		r.run(func(p *sim.Proc) {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, mode); err != nil {
				t.Errorf("mode %v: %v", mode, err)
			}
		})
		if !bytes.Equal(dst.Bytes(), src.Bytes()) {
			t.Fatalf("mode %v: copy incomplete", mode)
		}
	}
}

func TestNUMALocalPicksSameSocketWQ(t *testing.T) {
	r := newRig(t, 2)
	wqs := r.wqs()
	topo := r.service(t).Topology()
	s := offload.NewNUMALocal()
	for i := 0; i < 4; i++ {
		if got := s.Pick(offload.Request{Socket: 0, Topo: topo}, wqs); got.Dev.Cfg.Socket != 0 {
			t.Fatalf("socket-0 pick %d landed on socket %d", i, got.Dev.Cfg.Socket)
		}
		if got := s.Pick(offload.Request{Socket: 1, Topo: topo}, wqs); got.Dev.Cfg.Socket != 1 {
			t.Fatalf("socket-1 pick %d landed on socket %d", i, got.Dev.Cfg.Socket)
		}
	}
	// No local device: socket 5 falls back to the full set.
	if got := s.Pick(offload.Request{Socket: 5, Topo: topo}, wqs); got == nil {
		t.Fatal("fallback pick returned nil")
	}
}

// schedElapsed measures the virtual time a socket-0 tenant needs for count
// synchronous 16KB copies between socket-0 buffers under the scheduler.
func schedElapsed(t *testing.T, sched offload.Scheduler, count int) sim.Time {
	t.Helper()
	r := newRig(t, 2)
	svc := r.service(t, offload.WithScheduler(sched))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(16 << 10)
	src := tn.Alloc(n)
	dst := tn.Alloc(n)
	var elapsed sim.Time
	r.run(func(p *sim.Proc) {
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

// The acceptance experiment: on a two-socket platform with one device per
// socket, NUMA-local scheduling must not lose to blind round-robin for a
// local workload — round-robin sends half the descriptors across UPI and
// pays the remote-socket latency on every leg (Fig 6a).
func TestNUMALocalBeatsRoundRobinOnTwoSockets(t *testing.T) {
	const count = 100
	rrT := schedElapsed(t, offload.NewRoundRobin(), count)
	localT := schedElapsed(t, offload.NewNUMALocal(), count)
	if localT > rrT {
		t.Fatalf("NUMALocal (%v) slower than RoundRobin (%v) for socket-local copies", localT, rrT)
	}
	if float64(rrT) < 1.01*float64(localT) {
		t.Logf("warning: NUMA advantage small: RR %v vs local %v", rrT, localT)
	}
}

// loadedElapsed measures count 64KB copies from a tenant while a hog keeps
// the first WQ's backlog deep; sched routes around it or not.
func loadedElapsed(t *testing.T, sched offload.Scheduler, count int) sim.Time {
	t.Helper()
	r := newRig(t, 2)
	svc := r.service(t, offload.WithScheduler(sched))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	src := tn.Alloc(n)
	dst := tn.Alloc(n)

	// The hog saturates device 0's WQ with large transfers submitted
	// outside the service (a bulk tenant pinned to one queue).
	hogAS := mem.NewAddressSpace(99)
	r.devs[0].BindPASID(hogAS)
	hogWQ := r.devs[0].WQs()[0]
	hogCl := dsa.NewClient(hogWQ, nil)
	hn := int64(1 << 20)
	hsrc := hogAS.Alloc(hn, mem.OnNode(r.sys.Node(0)))
	hdst := hogAS.Alloc(hn, mem.OnNode(r.sys.Node(0)))

	var elapsed sim.Time
	r.e.Go("hog", func(p *sim.Proc) {
		for i := 0; i < 24; i++ {
			hogCl.Prepare(p)
			if _, err := hogCl.Submit(p, dsa.Descriptor{
				Op: dsa.OpMemmove, PASID: 99, Src: hsrc.Addr(0), Dst: hdst.Addr(0), Size: hn,
			}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.e.Go("tenant", func(p *sim.Proc) {
		p.Sleep(2 * time.Microsecond) // let the hog backlog build
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
	r.e.Run()
	return elapsed
}

// LeastLoaded must beat RoundRobin when one WQ carries a deep backlog:
// round-robin keeps handing every other descriptor to the hogged queue,
// where it waits behind megabyte transfers.
func TestLeastLoadedBeatsRoundRobinUnderAsymmetricLoad(t *testing.T) {
	const count = 40
	rrT := loadedElapsed(t, offload.NewRoundRobin(), count)
	llT := loadedElapsed(t, offload.NewLeastLoaded(), count)
	if llT >= rrT {
		t.Fatalf("LeastLoaded (%v) not faster than RoundRobin (%v) under asymmetric load", llT, rrT)
	}
}

func TestBoundedRetriesPropagateErrWQFull(t *testing.T) {
	// One engine, one 2-entry WQ: the third in-flight megabyte copy fills
	// the queue and the next submission is rejected.
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 2,
		LLC:     mem.LLCConfig{Capacity: 105 << 20},
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
	dev := dsa.New(e, sys, dsa.DefaultConfig("dsa0", 0))
	if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 1, WQs: []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	pol := offload.DefaultPolicy()
	pol.MaxRetries = 2
	svc, err := offload.NewService(e, sys, dev.WQs(), offload.WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1 << 20)
	src := tn.Alloc(4 * n)
	dst := tn.Alloc(4 * n)
	e.Go("test", func(p *sim.Proc) {
		var futs []*offload.Future
		var submitErr error
		for i := int64(0); i < 4; i++ {
			f, err := tn.Copy(p, dst.Addr(i*n), src.Addr(i*n), n)
			if err != nil {
				submitErr = err
				break
			}
			futs = append(futs, f)
		}
		if submitErr == nil {
			t.Error("4th submission onto a full 2-entry WQ should fail after bounded retries")
			return
		}
		if !errors.Is(submitErr, dsa.ErrWQFull) {
			t.Errorf("error %v does not wrap dsa.ErrWQFull", submitErr)
		}
		// The accepted operations still complete.
		for _, f := range futs {
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
	})
	e.Run()
	if tn.Stats().Failures == 0 {
		t.Fatal("failure not counted")
	}
}

func TestAutoBatcherCoalescesSubThresholdCopies(t *testing.T) {
	r := newRig(t, 1)
	pol := offload.DefaultPolicy()
	pol.AutoBatch = 8
	svc := r.service(t, offload.WithPolicy(pol))
	tn, _ := svc.NewTenant()
	n := int64(1 << 10)
	src := tn.Alloc(8 * n)
	dst := tn.Alloc(8 * n)
	sim.NewRand(5).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		var futs []*offload.Future
		for i := int64(0); i < 8; i++ {
			f, err := tn.Copy(p, dst.Addr(i*n), src.Addr(i*n), n)
			if err != nil {
				t.Error(err)
				return
			}
			futs = append(futs, f)
		}
		// The eighth operation reached Policy.AutoBatch and flushed.
		if pend := tn.Batcher().Pending(); pend != 0 {
			t.Errorf("batcher still holds %d ops after reaching the flush size", pend)
		}
		for _, f := range futs {
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("auto-batched copies incomplete")
	}
	st := tn.Stats()
	if st.Coalesce != 8 || st.Batches != 1 || st.HWOps != 1 {
		t.Fatalf("stats = %+v, want 8 coalesced into 1 batch", st)
	}
	if st.SWOps != 0 {
		t.Fatalf("sub-threshold ops leaked to the core: %+v", st)
	}
}

func TestWaitOnPendingFutureFlushesBatch(t *testing.T) {
	r := newRig(t, 1)
	pol := offload.DefaultPolicy()
	pol.AutoBatch = 32
	svc := r.service(t, offload.WithPolicy(pol))
	tn, _ := svc.NewTenant()
	n := int64(512)
	src := tn.Alloc(4 * n)
	dst := tn.Alloc(4 * n)
	sim.NewRand(6).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		var futs []*offload.Future
		for i := int64(0); i < 4; i++ {
			f, err := tn.Copy(p, dst.Addr(i*n), src.Addr(i*n), n)
			if err != nil {
				t.Error(err)
				return
			}
			futs = append(futs, f)
		}
		if futs[0].Done() {
			t.Error("queued operation reported done before flush")
		}
		// Waiting on any queued future flushes the whole batch.
		if _, err := futs[0].Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
		for _, f := range futs[1:] {
			if !f.Done() {
				t.Error("sibling still pending after batch completed")
			}
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("flushed copies incomplete")
	}
}

func TestMultiTenantSharedWQ(t *testing.T) {
	// Two tenants with distinct PASIDs submit concurrently through one
	// shared-mode WQ (the ENQCMD path); each operates in its own address
	// space.
	r := newRig(t, 1, dsa.WQConfig{Mode: dsa.Shared, Size: 32})
	svc := r.service(t)
	t1, _ := svc.NewTenant()
	t2, _ := svc.NewTenant()
	if t1.AS.PASID == t2.AS.PASID {
		t.Fatal("tenants share a PASID")
	}
	n := int64(64 << 10)
	src1, dst1 := t1.Alloc(n), t1.Alloc(n)
	src2, dst2 := t2.Alloc(n), t2.Alloc(n)
	sim.NewRand(7).Bytes(src1.Bytes())
	sim.NewRand(8).Bytes(src2.Bytes())
	for i, pair := range []struct {
		tn       *offload.Tenant
		src, dst *mem.Buffer
	}{{t1, src1, dst1}, {t2, src2, dst2}} {
		pair := pair
		r.e.Go([]string{"t1", "t2"}[i], func(p *sim.Proc) {
			for k := 0; k < 8; k++ {
				f, err := pair.tn.Copy(p, pair.dst.Addr(0), pair.src.Addr(0), n)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := f.Wait(p, offload.Poll); err != nil {
					t.Error(err)
				}
			}
		})
	}
	r.e.Run()
	if !bytes.Equal(dst1.Bytes(), src1.Bytes()) || !bytes.Equal(dst2.Bytes(), src2.Bytes()) {
		t.Fatal("multi-tenant copies incomplete")
	}
	if r.devs[0].Stats().Submitted != 16 {
		t.Fatalf("device saw %d descriptors, want 16", r.devs[0].Stats().Submitted)
	}
}

func TestTenantAllocPrefersDRAM(t *testing.T) {
	// A system whose socket lists CXL before DRAM: the tenant allocator
	// must still land default allocations on DRAM, and AllocOn must honor
	// explicit node ids.
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 2,
		LLC:     mem.LLCConfig{Capacity: 105 << 20},
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.CXL, ReadLat: 250 * time.Nanosecond, WriteLat: 400 * time.Nanosecond, ReadGBps: 16, WriteGBps: 10},
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
	dev := dsa.New(e, sys, dsa.DefaultConfig("dsa0", 0))
	if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}}}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	svc, err := offload.NewService(e, sys, dev.WQs())
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := svc.NewTenant()
	if b := tn.Alloc(4096); b.Node.Kind != mem.DRAM {
		t.Fatalf("default allocation landed on %v, want DRAM", b.Node.Kind)
	}
	if b := tn.AllocOn(0, 4096); b.Node.Kind != mem.CXL {
		t.Fatalf("AllocOn(0) landed on %v, want the CXL node", b.Node.Kind)
	}
}
