package offload_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// cxlRig is a two-socket system with one DSA per socket and a CXL expander
// on socket 0 (node 2), the SPR layout the placement experiments use.
func cxlRig(t *testing.T) *rig {
	t.Helper()
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 2,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 1, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 0, Kind: mem.CXL, ReadLat: 250 * time.Nanosecond, WriteLat: 400 * time.Nanosecond, ReadGBps: 16, WriteGBps: 10},
		},
	})
	r := &rig{e: e, sys: sys}
	for s := 0; s < 2; s++ {
		dev := dsa.New(e, sys, dsa.DefaultConfig("dsa", s))
		if _, err := dev.AddGroup(dsa.GroupConfig{
			Engines: 4,
			WQs:     []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := dev.Enable(); err != nil {
			t.Fatal(err)
		}
		r.devs = append(r.devs, dev)
	}
	return r
}

// Placement must route on the data's socket, not the tenant's: a socket-0
// tenant copying between socket-1 buffers lands on the socket-1 device,
// and a DRAM↔CXL pair straddling sockets lands next to the faster-write
// DRAM medium (G4, Fig 6b).
func TestPlacementRoutesToDataSocket(t *testing.T) {
	r := cxlRig(t)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	src := tn.AllocOn(1, n)
	dst := tn.AllocOn(1, n)
	sim.NewRand(11).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("copy incomplete")
	}
	if got := r.devs[1].Stats().Submitted; got != 1 {
		t.Fatalf("socket-1 device saw %d descriptors, want 1 (data lives on socket 1)", got)
	}
	if got := r.devs[0].Stats().Submitted; got != 0 {
		t.Fatalf("socket-0 device saw %d descriptors, want 0", got)
	}
}

func TestPlacementPrefersFasterWriteMediumAcrossSockets(t *testing.T) {
	r := cxlRig(t)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	dram := tn.AllocOn(1, n) // socket-1 DRAM
	cxl := tn.AllocOn(2, n)  // socket-0 CXL
	r.run(func(p *sim.Proc) {
		// Demote: socket-1 DRAM → socket-0 CXL. The pair straddles
		// sockets; the DRAM side writes faster, so the descriptor goes to
		// the socket-1 device.
		f, err := tn.Copy(p, cxl.Addr(0), dram.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if got := r.devs[1].Stats().Submitted; got != 1 {
		t.Fatalf("DRAM-side device saw %d descriptors, want 1 (faster-write medium)", got)
	}
}

// A mixed-home explicit batch under Placement shards into per-socket
// sub-batches, one per device, and the joined Future resolves once all
// sub-batches complete.
func TestBatchSplitsAcrossSockets(t *testing.T) {
	r := cxlRig(t)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	var srcs, dsts []*mem.Buffer
	for i := 0; i < 4; i++ {
		node := i % 2 // alternate socket-0 / socket-1 homes
		srcs = append(srcs, tn.AllocOn(node, n))
		dsts = append(dsts, tn.AllocOn(node, n))
		sim.NewRand(uint64(20 + i)).Bytes(srcs[i].Bytes())
	}
	r.run(func(p *sim.Proc) {
		b := tn.NewBatch()
		for i := range srcs {
			b.Copy(dsts[i].Addr(0), srcs[i].Addr(0), n)
		}
		f, err := b.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if f.Done() {
			t.Error("joined future reported done right after submission")
		}
		res, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
		}
		// Like an unsplit batch, the record counts completed work
		// descriptors — not sub-batches.
		if res.Record.Result != 4 {
			t.Errorf("joined Record.Result = %d, want 4 completed descriptors", res.Record.Result)
		}
	})
	for i := range srcs {
		if !bytes.Equal(dsts[i].Bytes(), srcs[i].Bytes()) {
			t.Fatalf("copy %d incomplete", i)
		}
	}
	for s, dev := range r.devs {
		st := dev.Stats()
		if st.Submitted != 1 || st.BatchesFetched != 1 {
			t.Fatalf("socket-%d device stats = %+v, want 1 batch parent", s, st)
		}
	}
	st := tn.Stats()
	if st.Splits != 2 {
		t.Fatalf("Splits = %d, want 2 sub-batches", st.Splits)
	}
	if st.HWBytes != 4*n {
		t.Fatalf("HWBytes = %d, want %d", st.HWBytes, 4*n)
	}
}

// A sub-batch left with one descriptor is submitted as a plain descriptor
// (the device rejects batches of fewer than two).
func TestSplitSingleDescriptorSubBatch(t *testing.T) {
	r := cxlRig(t)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	homes := []int{0, 0, 1} // two descriptors on socket 0, a lone one on 1
	var srcs, dsts []*mem.Buffer
	for i, node := range homes {
		srcs = append(srcs, tn.AllocOn(node, n))
		dsts = append(dsts, tn.AllocOn(node, n))
		sim.NewRand(uint64(30 + i)).Bytes(srcs[i].Bytes())
	}
	r.run(func(p *sim.Proc) {
		b := tn.NewBatch()
		for i := range srcs {
			b.Copy(dsts[i].Addr(0), srcs[i].Addr(0), n)
		}
		f, err := b.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	for i := range srcs {
		if !bytes.Equal(dsts[i].Bytes(), srcs[i].Bytes()) {
			t.Fatalf("copy %d incomplete", i)
		}
	}
	if st := r.devs[0].Stats(); st.BatchesFetched != 1 {
		t.Fatalf("socket-0 device fetched %d batches, want 1", st.BatchesFetched)
	}
	if st := r.devs[1].Stats(); st.Submitted != 1 || st.BatchesFetched != 0 {
		t.Fatalf("socket-1 device stats = %+v, want one plain descriptor and no batch", st)
	}
}

// Fences order descriptors across the whole batch, which two independent
// devices cannot honor: a fence-carrying batch is never split.
func TestFencedBatchNeverSplits(t *testing.T) {
	r := cxlRig(t)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	s0src, s0dst := tn.AllocOn(0, n), tn.AllocOn(0, n)
	s1src, s1dst := tn.AllocOn(1, n), tn.AllocOn(1, n)
	sim.NewRand(40).Bytes(s0src.Bytes())
	sim.NewRand(41).Bytes(s1src.Bytes())
	r.run(func(p *sim.Proc) {
		f, err := tn.NewBatch().
			Copy(s0dst.Addr(0), s0src.Addr(0), n).
			Fence().
			Copy(s1dst.Addr(0), s1src.Addr(0), n).
			Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(s0dst.Bytes(), s0src.Bytes()) || !bytes.Equal(s1dst.Bytes(), s1src.Bytes()) {
		t.Fatal("fenced copies incomplete")
	}
	if st := tn.Stats(); st.Splits != 0 {
		t.Fatalf("Splits = %d, want 0 (fenced batch must stay whole)", st.Splits)
	}
	// The whole batch landed on the first child's home device.
	if got := r.devs[1].Stats().Submitted; got != 0 {
		t.Fatalf("socket-1 device saw %d descriptors, want 0", got)
	}
}

// A failing sub-batch resolves its own siblings with the batch error —
// counted exactly once in Stats.Failures — while the other sub-batch's
// futures succeed untouched.
func TestPartialSubBatchFailureCountsOnce(t *testing.T) {
	r := cxlRig(t)
	pol := offload.DefaultPolicy()
	pol.AutoBatch = 4
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()), offload.WithPolicy(pol))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1 << 10) // sub-threshold: rides the AutoBatcher
	s0srcA, s0dstA := tn.AllocOn(0, n), tn.AllocOn(0, n)
	s0srcB := tn.AllocOn(0, n)
	// Lazy destination: the device faults on the unmapped page and, without
	// block-on-fault, partially completes — failing its sub-batch.
	s0dstB := tn.AllocOn(0, n, mem.Lazy())
	s1src, s1dst := tn.AllocOn(1, n), tn.AllocOn(1, n)
	s1src2, s1dst2 := tn.AllocOn(1, n), tn.AllocOn(1, n)
	sim.NewRand(50).Bytes(s0srcA.Bytes())
	sim.NewRand(51).Bytes(s1src.Bytes())
	r.run(func(p *sim.Proc) {
		copies := []struct {
			dst, src *mem.Buffer
		}{{s0dstA, s0srcA}, {s0dstB, s0srcB}, {s1dst, s1src}, {s1dst2, s1src2}}
		var futs []*offload.Future
		for _, c := range copies {
			f, err := tn.Copy(p, c.dst.Addr(0), c.src.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			futs = append(futs, f)
		}
		if pend := tn.Batcher().Pending(); pend != 0 {
			t.Errorf("batcher still holds %d ops after reaching the flush size", pend)
		}
		// Socket-0 siblings share the failing sub-batch.
		for _, f := range futs[:2] {
			if _, err := f.Wait(p, offload.Poll); err == nil {
				t.Error("sibling of faulting copy resolved without error")
			}
		}
		// Socket-1 siblings are a different sub-batch and succeed.
		for _, f := range futs[2:] {
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Errorf("unaffected sub-batch failed: %v", err)
			}
		}
	})
	if !bytes.Equal(s1dst.Bytes(), s1src.Bytes()) {
		t.Fatal("socket-1 sub-batch copies incomplete")
	}
	st := tn.Stats()
	if st.Failures != 1 {
		t.Fatalf("Failures = %d, want exactly 1 for one failed sub-batch", st.Failures)
	}
	if st.Splits != 2 {
		t.Fatalf("Splits = %d, want 2", st.Splits)
	}
}

// Splitting must stay off for data-blind schedulers: every sub-batch would
// land on the same device anyway, so the flush stays one batch.
func TestNoSplitUnderDataBlindScheduler(t *testing.T) {
	r := cxlRig(t)
	svc := r.service(t, offload.WithScheduler(offload.NewNUMALocal()))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	s0src, s0dst := tn.AllocOn(0, n), tn.AllocOn(0, n)
	s1src, s1dst := tn.AllocOn(1, n), tn.AllocOn(1, n)
	r.run(func(p *sim.Proc) {
		f, err := tn.NewBatch().
			Copy(s0dst.Addr(0), s0src.Addr(0), n).
			Copy(s1dst.Addr(0), s1src.Addr(0), n).
			Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if st := tn.Stats(); st.Splits != 0 {
		t.Fatalf("Splits = %d under NUMALocal, want 0", st.Splits)
	}
}

// Tenants on sockets without memory must fail with a clear error at
// creation, not panic in the allocator.
func TestTenantOnNodelessSocketFails(t *testing.T) {
	r := newRig(t, 1) // socket 1 exists but has no memory node
	svc := r.service(t)
	if _, err := svc.NewTenant(offload.OnSocket(1)); err == nil {
		t.Fatal("tenant on a node-less socket was created")
	}
	if _, err := svc.NewTenant(offload.OnSocket(7)); err == nil {
		t.Fatal("tenant on an out-of-range socket was created")
	}
	if _, err := svc.NewTenant(offload.OnSocket(-1)); err == nil {
		t.Fatal("tenant on a negative socket was created")
	}
}

// Out-of-range request sockets must fall back to the full WQ set through
// the topology cache, not panic.
func TestSchedulersTolerateForeignSockets(t *testing.T) {
	r := cxlRig(t)
	svc := r.service(t)
	topo := svc.Topology()
	wqs := svc.WQs()
	for _, s := range []offload.Scheduler{
		offload.NewNUMALocal(), offload.NewPlacement(), offload.NewPlacementQoS(), offload.NewPriorityAware(),
	} {
		req := offload.Request{Socket: 9, Topo: topo}
		if got := s.Pick(req, wqs); got == nil {
			t.Fatalf("%s returned nil for a foreign socket", s.Name())
		}
	}
}

// The Pick hot path must not allocate: per-socket WQ subsets and the
// express/rest partitions are precomputed on the Service, so schedulers
// only index them.
func TestPickZeroAllocs(t *testing.T) {
	r := newRig(t, 2, dsa.WQConfig{Mode: dsa.Shared, Size: 8, Priority: 15},
		dsa.WQConfig{Mode: dsa.Shared, Size: 24, Priority: 5})
	svc := r.service(t)
	topo := svc.Topology()
	wqs := svc.WQs()
	node0, node1 := r.sys.Node(0), r.sys.Node(1)
	reqs := []offload.Request{
		{Socket: 0, Topo: topo, SrcNode: node0, DstNode: node0},
		{Socket: 1, Topo: topo, SrcNode: node1, DstNode: node1},
		{Socket: 0, Topo: topo, SrcNode: node0, DstNode: node1},
		{Socket: 1, Class: offload.LatencySensitive, Topo: topo},
		// The load-aware path runs the per-socket cost model on every
		// Pick; it must stay allocation-free too.
		{Socket: 0, Topo: topo, SrcNode: node0, DstNode: node0, LoadAware: true, Size: 256 << 10},
		{Socket: 1, Topo: topo, SrcNode: node0, DstNode: node1, LoadAware: true, Size: 64 << 10},
		{Socket: 0, Class: offload.LatencySensitive, Topo: topo, SrcNode: node1, DstNode: node1, LoadAware: true, Size: 16 << 10},
	}
	scheds := []offload.Scheduler{
		offload.NewNUMALocal(),
		offload.NewLeastLoaded(),
		offload.NewPlacement(),
		offload.NewPlacementQoS(),
		offload.NewPriorityAware(),
	}
	for _, s := range scheds {
		s := s
		// Warm per-socket state (NUMALocal's rotation map) outside the
		// measured window.
		for _, req := range reqs {
			s.Pick(req, wqs)
		}
		allocs := testing.AllocsPerRun(200, func() {
			for _, req := range reqs {
				if s.Pick(req, wqs) == nil {
					t.Fatalf("%s returned nil", s.Name())
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s.Pick allocated %.1f times per run, want 0", s.Name(), allocs)
		}
	}
}

// BenchmarkPick measures the scheduler hot path; run with -benchmem to see
// the zero allocs/op the precomputed topology buys. The placement-load
// variant exercises the per-socket cost model on every pick.
func BenchmarkPick(b *testing.B) {
	for _, bc := range []struct {
		name      string
		mk        func() offload.Scheduler
		loadAware bool
	}{
		{"numa-local", func() offload.Scheduler { return offload.NewNUMALocal() }, false},
		{"least-loaded", func() offload.Scheduler { return offload.NewLeastLoaded() }, false},
		{"placement", func() offload.Scheduler { return offload.NewPlacement() }, false},
		{"placement-load", func() offload.Scheduler { return offload.NewPlacement() }, true},
		{"priority-aware", func() offload.Scheduler { return offload.NewPriorityAware() }, false},
	} {
		sched := bc.mk()
		b.Run(bc.name, func(b *testing.B) {
			e := sim.New()
			sys := mem.NewSystem(e, mem.SystemConfig{
				Sockets: 2,
				LLC:     mem.LLCConfig{Capacity: 105 << 20},
				NodeDefs: []mem.NodeConfig{
					{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
					{Socket: 1, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
				},
			})
			var wqs []*dsa.WQ
			var devs []*dsa.Device
			for s := 0; s < 2; s++ {
				dev := dsa.New(e, sys, dsa.DefaultConfig("dsa", s))
				if _, err := dev.AddGroup(dsa.GroupConfig{
					Engines: 4,
					WQs: []dsa.WQConfig{
						{Mode: dsa.Shared, Size: 8, Priority: 15},
						{Mode: dsa.Shared, Size: 24, Priority: 5},
					},
				}); err != nil {
					b.Fatal(err)
				}
				if err := dev.Enable(); err != nil {
					b.Fatal(err)
				}
				devs = append(devs, dev)
				wqs = append(wqs, dev.WQs()...)
			}
			svc, err := offload.NewService(e, sys, wqs)
			if err != nil {
				b.Fatal(err)
			}
			req := offload.Request{
				Socket:    0,
				Topo:      svc.Topology(),
				SrcNode:   sys.Node(0),
				DstNode:   sys.Node(1),
				Size:      64 << 10,
				LoadAware: bc.loadAware,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Socket = i & 1
				if sched.Pick(req, wqs) == nil {
					b.Fatal("nil pick")
				}
			}
			_ = devs
		})
	}
}

// Load-aware placement (Policy.LoadAware): with the data's home device
// backlogged and the remote device idle, submissions detour across UPI
// once the modelled queueing delay (latency EWMA × occupancy) exceeds the
// transfer penalty — and never detour when the policy is off.
func TestLoadAwarePlacementDetoursUnderBacklog(t *testing.T) {
	for _, loadAware := range []bool{false, true} {
		pol := offload.DefaultPolicy()
		pol.LoadAware = loadAware
		r := newRig(t, 2)
		svc := r.service(t, offload.WithScheduler(offload.NewPlacement()), offload.WithPolicy(pol))
		tn, err := svc.NewTenant(offload.OnSocket(0))
		if err != nil {
			t.Fatal(err)
		}
		n := int64(256 << 10)
		src := tn.AllocOn(0, n) // all data homed on socket 0
		dst := tn.AllocOn(0, n)
		r.run(func(p *sim.Proc) {
			// Warmup: one synchronous copy gives the socket-0 WQ a
			// completion-latency history to price the backlog with.
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
				return
			}
			// Burst without waiting: occupancy builds on the home device.
			var futs []*offload.Future
			for i := 0; i < 24; i++ {
				f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
				if err != nil {
					t.Error(err)
					return
				}
				futs = append(futs, f)
			}
			for _, f := range futs {
				if _, err := f.Wait(p, offload.Poll); err != nil {
					t.Error(err)
				}
			}
		})
		remote := r.devs[1].Stats().Submitted
		if loadAware && remote == 0 {
			t.Errorf("load-aware: no submission detoured to the idle socket-1 device under backlog")
		}
		if !loadAware && remote != 0 {
			t.Errorf("data-only: %d submissions left the data's socket", remote)
		}
		if home := r.devs[0].Stats().Submitted; home == 0 {
			t.Errorf("loadAware=%v: home device saw no traffic", loadAware)
		}
	}
}

// An unloaded system must route load-aware placement exactly like
// data-only placement: the data's home wins every tie, so sequential
// (never-queued) traffic pays no UPI detour.
func TestLoadAwarePlacementIdleMatchesDataOnly(t *testing.T) {
	pol := offload.DefaultPolicy()
	pol.LoadAware = true
	r := newRig(t, 2)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()), offload.WithPolicy(pol))
	tn, err := svc.NewTenant(offload.OnSocket(1))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	src := tn.AllocOn(0, n)
	dst := tn.AllocOn(0, n)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
	})
	if got := r.devs[1].Stats().Submitted; got != 0 {
		t.Fatalf("idle load-aware placement sent %d descriptors off the data's socket", got)
	}
	if got := r.devs[0].Stats().Submitted; got != 8 {
		t.Fatalf("data's device saw %d descriptors, want 8", got)
	}
}

// A mixed-home flush sharded into per-socket sub-batches costs exactly
// one admission token: the same logical work must not cost more under
// Placement (split on) than under NUMALocal (never splits).
func TestSplitFlushChargesAdmissionOnce(t *testing.T) {
	r := cxlRig(t)
	pol := offload.DefaultPolicy()
	pol.AdmitRate = 1 // no meaningful refill within the test
	pol.AdmitBurst = 2
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()), offload.WithPolicy(pol))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	s0src, s0dst := tn.AllocOn(0, 2*n), tn.AllocOn(0, 2*n)
	s1src, s1dst := tn.AllocOn(1, 2*n), tn.AllocOn(1, 2*n)
	mixedBatch := func() *offload.Batch {
		return tn.NewBatch().
			Copy(s0dst.Addr(0), s0src.Addr(0), n).
			Copy(s0dst.Addr(n), s0src.Addr(n), n).
			Copy(s1dst.Addr(0), s1src.Addr(0), n).
			Copy(s1dst.Addr(n), s1src.Addr(n), n)
	}
	r.run(func(p *sim.Proc) {
		// Two splitting flushes ride the burst of two tokens — under the
		// old per-sub-batch charge the second flush would already be shed.
		for i := 0; i < 2; i++ {
			f, err := mixedBatch().Submit(p)
			if err != nil {
				t.Errorf("flush %d rejected: %v", i, err)
				return
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
		// The bucket is empty: the third logical flush is shed whole.
		if _, err := mixedBatch().Submit(p); err == nil {
			t.Error("third flush admitted past a burst of 2")
		} else if !errors.Is(err, offload.ErrAdmission) {
			t.Errorf("error %v does not wrap ErrAdmission", err)
		}
	})
	st := tn.Stats()
	if st.Splits != 4 {
		t.Errorf("Splits = %d, want 4 (two admitted flushes × two sub-batches)", st.Splits)
	}
	if st.Shed != 1 {
		t.Errorf("Shed = %d, want 1 (shed per logical flush, not per sub-batch)", st.Shed)
	}
}

// Detour hysteresis: the raw cost model re-prices every submission, so a
// workload hovering at the detour threshold would ping-pong between
// sockets. With the smoothed cost and switch margin, a transient
// one-descriptor spike never flips routing, a sustained backlog flips it
// exactly once, and a drained queue brings it home exactly once.
func TestDetourHysteresisResistsFlapping(t *testing.T) {
	pol := offload.DefaultPolicy()
	pol.LoadAware = true
	r := newRig(t, 2)
	sched := offload.NewPlacement()
	svc := r.service(t, offload.WithScheduler(sched), offload.WithPolicy(pol))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256 << 10)
	src := tn.AllocOn(0, n)
	dst := tn.AllocOn(0, n)
	// Warmup: a completed copy seeds the home WQ's latency EWMA — without
	// it the backlog below would price at zero.
	r.run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})

	// Drive Pick directly against controlled WQ state: hogSubmit raises
	// the home WQ's occupancy without running the engine; r.e.Run drains.
	homeWQ := r.devs[0].WQs()[0]
	hsrc, hdst := tn.AllocOn(0, n), tn.AllocOn(0, n)
	hogSubmit := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if _, err := homeWQ.Submit(dsa.Descriptor{
				Op: dsa.OpMemmove, PASID: tn.AS.PASID,
				Src: hsrc.Addr(0), Dst: hdst.Addr(0), Size: n,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	req := offload.Request{
		Socket: 0, Topo: svc.Topology(),
		SrcNode: r.sys.Node(0), DstNode: r.sys.Node(0),
		Size: n, LoadAware: true,
	}
	var picks []int
	pick := func() {
		t.Helper()
		wq := sched.Pick(req, svc.WQs())
		if wq == nil {
			t.Fatal("nil pick")
		}
		picks = append(picks, wq.Dev.Cfg.Socket)
	}
	transitions := func(from int) int {
		t.Helper()
		n := 0
		for i := from + 1; i < len(picks); i++ {
			if picks[i] != picks[i-1] {
				n++
			}
		}
		return n
	}

	// Phase 1 — transient spikes: one queued descriptor per pick, drained
	// between picks. The raw model detours on every busy sample (one
	// same-size descriptor's ~10µs queueing delay beats the ~3µs UPI
	// penalty outright); the smoothed cost damps the single sample below
	// the switch margin, so every pick stays on the data's home.
	for i := 0; i < 8; i++ {
		hogSubmit(1)
		pick()
		r.e.Run()
		pick()
	}
	for i, s := range picks {
		if s != 0 {
			t.Fatalf("phase 1 pick %d detoured to socket %d on a transient spike", i, s)
		}
	}

	// A pipeline holds its route through the same spikes: the same copy
	// as a one-stage pipeline prices its fixed legs through the same
	// smoothed cost and incumbent, so a descriptor queued at its submit
	// instant leaves its scratch home, and every chain of the run, on the
	// data's socket. A drained pick after each run zeroes the estimate, as
	// in the loop above.
	chain := tn.NewPipeline()
	chain.Copy(offload.At(dst.Addr(0)), offload.At(src.Addr(0)), n)
	for i := 0; i < 8; i++ {
		r.run(func(p *sim.Proc) {
			if _, err := homeWQ.Submit(dsa.Descriptor{
				Op: dsa.OpMemmove, PASID: tn.AS.PASID,
				Src: hsrc.Addr(0), Dst: hdst.Addr(0), Size: n,
			}); err != nil {
				t.Error(err)
				return
			}
			f, err := chain.Submit(p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		})
		if home := chain.Home(); home != 0 {
			t.Fatalf("pipeline run %d placed on socket %d under a transient spike, want the data's home 0", i, home)
		}
		pick()
	}
	for i, s := range picks {
		if s != 0 {
			t.Fatalf("phase 1 pick %d detoured to socket %d after a pipeline run", i, s)
		}
	}

	// Phase 2 — sustained backlog: a deep queue that never drains must
	// flip routing to the idle socket exactly once, then hold it there.
	p2 := len(picks)
	hogSubmit(24)
	for i := 0; i < 10; i++ {
		pick()
	}
	if got := transitions(p2 - 1); got != 1 {
		t.Errorf("phase 2: %d route transitions under sustained backlog, want exactly 1 (picks %v)", got, picks[p2:])
	}
	if last := picks[len(picks)-1]; last != 1 {
		t.Errorf("phase 2 settled on socket %d, want the idle socket 1", last)
	}

	// Phase 3 — drained: with the home queue empty again, routing returns
	// home exactly once and stays.
	p3 := len(picks)
	r.e.Run()
	for i := 0; i < 10; i++ {
		pick()
	}
	if got := transitions(p3 - 1); got != 1 {
		t.Errorf("phase 3: %d route transitions after the drain, want exactly 1 (picks %v)", got, picks[p3:])
	}
	if last := picks[len(picks)-1]; last != 0 {
		t.Errorf("phase 3 settled on socket %d, want the data's home 0", last)
	}
}

// Load-aware batch splitting: a mixed-home flush must group by where its
// slices will actually run. With the home socket saturated, the cost model
// detours the home slice to the idle socket, the groups coincide, and the
// flush goes out as one batch on the idle device — no sub-batch is
// dutifully submitted into the backlog. Without LoadAware the same flush
// splits by raw data home and feeds the saturated device.
func TestLoadAwareSplitDetoursAwayFromSaturatedSocket(t *testing.T) {
	for _, loadAware := range []bool{false, true} {
		pol := offload.DefaultPolicy()
		pol.LoadAware = loadAware
		r := newRig(t, 2)
		svc := r.service(t, offload.WithScheduler(offload.NewPlacement()), offload.WithPolicy(pol))
		tn, err := svc.NewTenant(offload.OnSocket(0))
		if err != nil {
			t.Fatal(err)
		}
		n := int64(256 << 10)
		s0src, s0dst := tn.AllocOn(0, 2*n), tn.AllocOn(0, 2*n)
		s1src, s1dst := tn.AllocOn(1, 2*n), tn.AllocOn(1, 2*n)
		hsrc, hdst := tn.AllocOn(0, 1<<20), tn.AllocOn(0, 1<<20)
		r.run(func(p *sim.Proc) {
			// Warm both WQs' latency EWMAs with one completed copy each.
			for _, pair := range []struct{ dst, src mem.Addr }{
				{s0dst.Addr(0), s0src.Addr(0)}, {s1dst.Addr(0), s1src.Addr(0)},
			} {
				f, err := tn.Copy(p, pair.dst, pair.src, n, offload.On(offload.Hardware))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := f.Wait(p, offload.Poll); err != nil {
					t.Error(err)
					return
				}
			}
			// Saturate the home device outside the service, then give the
			// cost model a few samples so the smoothed home cost reflects
			// the backlog (the burst's own picks detour once it does).
			hogCl := dsa.NewClient(r.devs[0].WQs()[0], nil)
			for i := 0; i < 24; i++ {
				if _, err := hogCl.Submit(p, dsa.Descriptor{
					Op: dsa.OpMemmove, PASID: tn.AS.PASID,
					Src: hsrc.Addr(0), Dst: hdst.Addr(0), Size: 1 << 20,
				}); err != nil {
					t.Error(err)
					return
				}
			}
			var prime []*offload.Future
			for i := 0; i < 4; i++ {
				f, err := tn.Copy(p, s0dst.Addr(0), s0src.Addr(0), n, offload.On(offload.Hardware))
				if err != nil {
					t.Error(err)
					return
				}
				prime = append(prime, f)
			}
			before := tn.Stats().Splits
			f, err := tn.NewBatch().
				Copy(s0dst.Addr(0), s0src.Addr(0), n).
				Copy(s0dst.Addr(n), s0src.Addr(n), n).
				Copy(s1dst.Addr(0), s1src.Addr(0), n).
				Copy(s1dst.Addr(n), s1src.Addr(n), n).
				Submit(p)
			if err != nil {
				t.Error(err)
				return
			}
			splits := tn.Stats().Splits - before
			if loadAware && splits != 0 {
				t.Errorf("load-aware: mixed flush split into %d sub-batches, want 0 (routes coincide on the idle socket)", splits)
			}
			if !loadAware && splits != 2 {
				t.Errorf("data-only: mixed flush split into %d sub-batches, want 2", splits)
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
			for _, pf := range prime {
				if _, err := pf.Wait(p, offload.Poll); err != nil {
					t.Error(err)
				}
			}
		})
		batchesOn := func(dev int) int64 { return r.devs[dev].Stats().BatchesFetched }
		if loadAware {
			if got := batchesOn(1); got != 1 {
				t.Errorf("load-aware: idle socket-1 device fetched %d batches, want the whole flush (1)", got)
			}
			if got := batchesOn(0); got != 0 {
				t.Errorf("load-aware: saturated socket-0 device fetched %d batches, want 0", got)
			}
		} else if got := batchesOn(0); got != 1 {
			t.Errorf("data-only: socket-0 device fetched %d batches, want its sub-batch (1)", got)
		}
	}
}
