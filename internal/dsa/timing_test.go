package dsa

import (
	"errors"
	"testing"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// asyncThroughput drives count copies of size bytes through wq with a
// client-side window of qd outstanding descriptors and returns GB/s.
func asyncThroughput(t *testing.T, r *rig, wq *WQ, src, dst *mem.Buffer, size int64, count, qd int, flags Flags) float64 {
	t.Helper()
	cl := NewClient(wq, nil)
	var elapsed sim.Time
	r.e.Go("bench", func(p *sim.Proc) {
		start := p.Now()
		var window []*Completion
		for i := 0; i < count; i++ {
			cl.Prepare(p)
			comp, err := cl.Submit(p, Descriptor{
				Op: OpMemmove, Flags: flags, PASID: 1,
				Src: src.Addr(0), Dst: dst.Addr(0), Size: size,
			})
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			window = append(window, comp)
			if len(window) >= qd {
				window[0].Wait(p)
				window = window[1:]
			}
		}
		for _, c := range window {
			c.Wait(p)
		}
		elapsed = p.Now() - start
	})
	r.e.Run()
	return sim.Rate(size*int64(count), elapsed)
}

// syncLatency measures the average full sync-offload latency (prepare +
// submit + wait) over count iterations.
func syncLatency(t *testing.T, r *rig, size int64, count int) sim.Time {
	t.Helper()
	src := r.alloc(size)
	dst := r.alloc(size)
	wq := r.dev.WQs()[0]
	cl := NewClient(wq, nil)
	var total sim.Time
	r.e.Go("bench", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			start := p.Now()
			if _, err := cl.RunSync(p, Descriptor{
				Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: size,
			}, Poll); err != nil {
				t.Error(err)
				return
			}
			total += p.Now() - start
		}
	})
	r.e.Run()
	return total / sim.Time(count)
}

func TestSyncLatency4KBAnchor(t *testing.T) {
	r := newRig(t)
	lat := syncLatency(t, r, 4096, 50)
	// Calibration anchor: low-single-digit µs for a 4 KB sync offload
	// (Figs 5/6a), around the CPU's ~1.3 µs crossover.
	if lat < 500*time.Nanosecond || lat > 2*time.Microsecond {
		t.Fatalf("4KB sync latency = %v, want ~0.5–2µs", lat)
	}
}

func TestSyncCrossoverNear4KB(t *testing.T) {
	// Below ~4 KB the CPU wins synchronously; above, DSA wins (Fig 2a).
	r := newRig(t)
	as2 := r.as
	core := cpu.NewCore(0, 0, r.sys, as2, cpu.SPRModel())

	cpuTime := func(size int64) sim.Time {
		s := r.alloc(size)
		d := r.alloc(size)
		dur, err := core.Memcpy(d.Addr(0), s.Addr(0), size)
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	small := syncLatency(t, r, 256, 20)
	if cpu256 := cpuTime(256); small <= cpu256 {
		t.Fatalf("DSA sync 256B (%v) should lose to CPU (%v)", small, cpu256)
	}
	big := syncLatency(t, r, 16384, 20)
	if cpu16k := cpuTime(16384); big >= cpu16k {
		t.Fatalf("DSA sync 16KB (%v) should beat CPU (%v)", big, cpu16k)
	}
}

func TestAsyncSaturatesFabric(t *testing.T) {
	r := newRig(t)
	size := int64(64 << 10)
	src := r.alloc(size)
	dst := r.alloc(size)
	got := asyncThroughput(t, r, r.dev.WQs()[0], src, dst, size, 200, 32, 0)
	if got < 25 || got > 30.5 {
		t.Fatalf("async 64KB throughput = %.1f GB/s, want ~30 (fabric limit)", got)
	}
}

func TestAsyncSmallTransfersSubmissionBound(t *testing.T) {
	r := newRig(t)
	src := r.alloc(256)
	dst := r.alloc(256)
	got := asyncThroughput(t, r, r.dev.WQs()[0], src, dst, 256, 500, 32, 0)
	if got < 1.5 || got > 6 {
		t.Fatalf("async 256B throughput = %.1f GB/s, want ~2.5–3 (submission bound)", got)
	}
}

func TestDeeperWindowRaisesThroughput(t *testing.T) {
	// Fig 4: more in-flight descriptors hide per-descriptor latency.
	size := int64(4096)
	r1 := newRig(t)
	s1, d1 := r1.alloc(size), r1.alloc(size)
	qd1 := asyncThroughput(t, r1, r1.dev.WQs()[0], s1, d1, size, 200, 1, 0)
	r2 := newRig(t)
	s2, d2 := r2.alloc(size), r2.alloc(size)
	qd32 := asyncThroughput(t, r2, r2.dev.WQs()[0], s2, d2, size, 200, 32, 0)
	if qd32 < 3*qd1 {
		t.Fatalf("QD32 (%.1f) should be ≥3× QD1 (%.1f) at 4KB", qd32, qd1)
	}
}

func TestBatchingBoostsSyncSmallTransfers(t *testing.T) {
	// Fig 3: synchronous 256B offloads gain enormously from batching.
	size := int64(256)
	bs := 64

	r1 := newRig(t)
	seq := syncLatency(t, r1, size, bs) * sim.Time(bs) // bs sequential syncs

	r2 := newRig(t)
	src := r2.alloc(size * int64(bs))
	dst := r2.alloc(size * int64(bs))
	var subs []Descriptor
	for i := 0; i < bs; i++ {
		subs = append(subs, Descriptor{
			Op: OpMemmove, Src: src.Addr(int64(i) * size), Dst: dst.Addr(int64(i) * size), Size: size,
		})
	}
	cl := NewClient(r2.dev.WQs()[0], nil)
	var batched sim.Time
	r2.e.Go("bench", func(p *sim.Proc) {
		start := p.Now()
		if _, err := cl.RunSync(p, Descriptor{Op: OpBatch, PASID: 1, Descs: subs}, Poll); err != nil {
			t.Error(err)
			return
		}
		batched = p.Now() - start
	})
	r2.e.Run()
	if batched*4 >= seq {
		t.Fatalf("batched 64×256B (%v) should be ≥4× faster than sequential (%v)", batched, seq)
	}
}

func TestPEScalingForSmallBatchedTransfers(t *testing.T) {
	// Fig 7: more engines per group raise small-transfer batch throughput.
	run := func(engines int) float64 {
		r := newRig(t, GroupConfig{Engines: engines, WQs: []WQConfig{{Mode: Dedicated, Size: 32}}})
		size := int64(256)
		bs := 64
		src := r.alloc(size * int64(bs))
		dst := r.alloc(size * int64(bs))
		var subs []Descriptor
		for i := 0; i < bs; i++ {
			subs = append(subs, Descriptor{
				Op: OpMemmove, Src: src.Addr(int64(i) * size), Dst: dst.Addr(int64(i) * size), Size: size,
			})
		}
		cl := NewClient(r.dev.WQs()[0], nil)
		count := 30
		var elapsed sim.Time
		r.e.Go("bench", func(p *sim.Proc) {
			start := p.Now()
			var window []*Completion
			for i := 0; i < count; i++ {
				cl.Prepare(p)
				comp, err := cl.Submit(p, Descriptor{Op: OpBatch, PASID: 1, Descs: subs})
				if err != nil {
					t.Error(err)
					return
				}
				window = append(window, comp)
				if len(window) >= 8 {
					window[0].Wait(p)
					window = window[1:]
				}
			}
			for _, c := range window {
				c.Wait(p)
			}
			elapsed = p.Now() - start
		})
		r.e.Run()
		return sim.Rate(size*int64(bs)*int64(count), elapsed)
	}
	one := run(1)
	four := run(4)
	if four < 2*one {
		t.Fatalf("4 PEs (%.1f GB/s) should be ≥2× 1 PE (%.1f GB/s) for 256B batches", four, one)
	}
}

func TestSWQSlowerThanDWQSingleThread(t *testing.T) {
	// Fig 9: ENQCMD's non-posted round trip makes a single-thread SWQ
	// slower than a DWQ at small/medium sizes.
	size := int64(1024)
	rd := newRig(t, GroupConfig{Engines: 1, WQs: []WQConfig{{Mode: Dedicated, Size: 32}}})
	sd, dd := rd.alloc(size), rd.alloc(size)
	dwq := asyncThroughput(t, rd, rd.dev.WQs()[0], sd, dd, size, 300, 32, 0)

	rs := newRig(t, GroupConfig{Engines: 1, WQs: []WQConfig{{Mode: Shared, Size: 32}}})
	ss, ds := rs.alloc(size), rs.alloc(size)
	swq := asyncThroughput(t, rs, rs.dev.WQs()[0], ss, ds, size, 300, 32, 0)
	if swq >= dwq {
		t.Fatalf("SWQ (%.1f GB/s) should be slower than DWQ (%.1f GB/s) for one thread", swq, dwq)
	}
}

func TestSWQRetriesWhenFull(t *testing.T) {
	r := newRig(t, GroupConfig{Engines: 1, WQs: []WQConfig{{Mode: Shared, Size: 2}}})
	size := int64(1 << 20) // long transfers keep the queue busy
	src, dst := r.alloc(size), r.alloc(size)
	_ = asyncThroughput(t, r, r.dev.WQs()[0], src, dst, size, 20, 16, 0)
	if r.dev.Stats().Retries == 0 {
		t.Fatal("flooding a 2-entry SWQ produced no ENQCMD retries")
	}
}

func TestWQPriorityLowersLatency(t *testing.T) {
	// §3.4 F3: higher-priority WQs are dispatched more frequently.
	r := newRig(t, GroupConfig{
		Engines: 1,
		WQs: []WQConfig{
			{Mode: Dedicated, Size: 32, Priority: 15},
			{Mode: Dedicated, Size: 32, Priority: 1},
		},
	})
	size := int64(32 << 10)
	srcH, dstH := r.alloc(size), r.alloc(size)
	srcL, dstL := r.alloc(size), r.alloc(size)
	wqs := r.dev.WQs()
	var hiLat, loLat sim.Time
	runLoad := func(wq *WQ, src, dst *mem.Buffer, lat *sim.Time, n int) {
		cl := NewClient(wq, nil)
		r.e.Go("load", func(p *sim.Proc) {
			var comps []*Completion
			for i := 0; i < n; i++ {
				cl.Prepare(p)
				c, err := cl.Submit(p, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: size})
				if err != nil {
					t.Error(err)
					return
				}
				comps = append(comps, c)
			}
			var total sim.Time
			for _, c := range comps {
				c.Wait(p)
				total += c.QueueTime()
			}
			*lat = total / sim.Time(n)
		})
	}
	runLoad(wqs[0], srcH, dstH, &hiLat, 30)
	runLoad(wqs[1], srcL, dstL, &loLat, 30)
	r.e.Run()
	if hiLat >= loLat {
		t.Fatalf("high-priority queue time (%v) should beat low-priority (%v)", hiLat, loLat)
	}
}

func TestReadBufferStarvationLimitsThroughput(t *testing.T) {
	// §3.4 F3: a group starved of read buffers cannot sustain fabric rate.
	run := func(bufs int) float64 {
		r := newRig(t, GroupConfig{Engines: 4, ReadBufs: bufs, WQs: []WQConfig{{Mode: Dedicated, Size: 32}}})
		size := int64(64 << 10)
		src, dst := r.alloc(size), r.alloc(size)
		return asyncThroughput(t, r, r.dev.WQs()[0], src, dst, size, 100, 32, 0)
	}
	full := run(96)
	starved := run(8) // 8 × 64B / 110ns ≈ 4.6 GB/s
	if starved >= full/3 {
		t.Fatalf("starved group (%.1f GB/s) should be well below full allocation (%.1f GB/s)", starved, full)
	}
}

func TestMultiDeviceScalesAggregate(t *testing.T) {
	// Fig 10: multiple DSA instances scale near-linearly at medium sizes.
	e := sim.New()
	sys := sprSystem(e)
	as := mem.NewAddressSpace(1)
	size := int64(16 << 10)
	mkDev := func(name string) *Device {
		dev := New(e, sys, DefaultConfig(name, 0))
		if _, err := dev.AddGroup(GroupConfig{Engines: 4, WQs: []WQConfig{{Mode: Dedicated, Size: 32}}}); err != nil {
			t.Fatal(err)
		}
		if err := dev.Enable(); err != nil {
			t.Fatal(err)
		}
		dev.BindPASID(as)
		return dev
	}
	run := func(n int) float64 {
		devs := make([]*Device, n)
		for i := range devs {
			devs[i] = mkDev("dsa" + string(rune('0'+i)))
		}
		count := 150
		begin := e.Now()
		var latest sim.Time
		for _, dev := range devs {
			dev := dev
			src := as.Alloc(size, mem.OnNode(sys.Node(0)))
			dst := as.Alloc(size, mem.OnNode(sys.Node(0)))
			cl := NewClient(dev.WQs()[0], nil)
			e.Go("bench", func(p *sim.Proc) {
				var window []*Completion
				for i := 0; i < count; i++ {
					cl.Prepare(p)
					c, err := cl.Submit(p, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: size})
					if err != nil {
						t.Error(err)
						return
					}
					window = append(window, c)
					if len(window) >= 32 {
						window[0].Wait(p)
						window = window[1:]
					}
				}
				for _, c := range window {
					c.Wait(p)
				}
				if p.Now() > latest {
					latest = p.Now()
				}
			})
		}
		e.Run()
		return sim.Rate(size*int64(count)*int64(n), latest-begin)
	}
	one := run(1)
	two := run(2)
	if two < 1.7*one {
		t.Fatalf("2 devices (%.1f GB/s) should be ≥1.7× one (%.1f GB/s)", two, one)
	}
}

func TestRemoteSocketThroughputClose(t *testing.T) {
	// Fig 6a: pipelining hides UPI latency; remote throughput ≈ local.
	size := int64(256 << 10)
	r1 := newRig(t)
	sL, dL := r1.alloc(size), r1.alloc(size)
	local := asyncThroughput(t, r1, r1.dev.WQs()[0], sL, dL, size, 100, 32, 0)

	r2 := newRig(t)
	remote := r2.sys.Node(1)
	sR := r2.as.Alloc(size, mem.OnNode(remote))
	dR := r2.as.Alloc(size, mem.OnNode(remote))
	rem := asyncThroughput(t, r2, r2.dev.WQs()[0], sR, dR, size, 100, 32, 0)
	if rem < 0.75*local {
		t.Fatalf("remote throughput %.1f too far below local %.1f", rem, local)
	}
}

func TestCXLWriteSlowerThanRead(t *testing.T) {
	// Fig 6b: DRAM→CXL (writes to CXL) is slower than CXL→DRAM.
	size := int64(256 << 10)
	r1 := newRig(t)
	cxl1 := r1.sys.Node(2)
	sD := r1.alloc(size)
	dC := r1.as.Alloc(size, mem.OnNode(cxl1))
	d2c := asyncThroughput(t, r1, r1.dev.WQs()[0], sD, dC, size, 60, 32, 0)

	r2 := newRig(t)
	cxl2 := r2.sys.Node(2)
	sC := r2.as.Alloc(size, mem.OnNode(cxl2))
	dD := r2.alloc(size)
	c2d := asyncThroughput(t, r2, r2.dev.WQs()[0], sC, dD, size, 60, 32, 0)
	if d2c >= c2d {
		t.Fatalf("DRAM→CXL (%.1f GB/s) should be slower than CXL→DRAM (%.1f GB/s)", d2c, c2d)
	}
}

func TestHugePagesNoThroughputEffect(t *testing.T) {
	// Fig 8: page size barely affects DSA throughput.
	run := func(ps int64) float64 {
		r := newRig(t)
		size := int64(256 << 10)
		src := r.as.Alloc(size, mem.OnNode(r.node), mem.WithPageSize(ps))
		dst := r.as.Alloc(size, mem.OnNode(r.node), mem.WithPageSize(ps))
		return asyncThroughput(t, r, r.dev.WQs()[0], src, dst, size, 80, 32, 0)
	}
	small := run(mem.Page4K)
	huge := run(mem.Page2M)
	giant := run(mem.Page1G)
	for _, v := range []float64{huge, giant} {
		ratio := v / small
		if ratio < 0.93 || ratio > 1.07 {
			t.Fatalf("huge-page throughput deviates: 4K=%.1f 2M=%.1f 1G=%.1f", small, huge, giant)
		}
	}
}

func TestCBDMAComparison(t *testing.T) {
	// §4.2: DSA delivers ≈2.1× CBDMA's throughput on average.
	size := int64(64 << 10)
	r := newRig(t)
	s1, d1 := r.alloc(size), r.alloc(size)
	dsaT := asyncThroughput(t, r, r.dev.WQs()[0], s1, d1, size, 100, 32, 0)

	e := sim.New()
	sys := sprSystem(e)
	cfg := DefaultConfig("cbdma0", 0)
	cfg.Timing = CBDMATiming()
	dev := New(e, sys, cfg)
	if _, err := dev.AddGroup(GroupConfig{Engines: 1, WQs: []WQConfig{{Mode: Dedicated, Size: 32}}}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddressSpace(1)
	dev.BindPASID(as)
	r2 := &rig{e: e, sys: sys, dev: dev, as: as, node: sys.Node(0)}
	s2 := as.Alloc(size, mem.OnNode(sys.Node(0)))
	d2 := as.Alloc(size, mem.OnNode(sys.Node(0)))
	cbT := asyncThroughput(t, r2, dev.WQs()[0], s2, d2, size, 100, 32, 0)

	ratio := dsaT / cbT
	if ratio < 1.7 || ratio > 2.6 {
		t.Fatalf("DSA/CBDMA = %.2f (%.1f vs %.1f GB/s), want ≈2.1", ratio, dsaT, cbT)
	}
}

func TestUMWaitAccountsWaitCycles(t *testing.T) {
	// Fig 11: at 4KB+ most offload cycles sit in UMWAIT.
	r := newRig(t)
	core := cpu.NewCore(0, 0, r.sys, r.as, cpu.SPRModel())
	src := r.alloc(64 << 10)
	dst := r.alloc(64 << 10)
	cl := NewClient(r.dev.WQs()[0], core)
	r.e.Go("bench", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if _, err := cl.RunSync(p, Descriptor{
				Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 64 << 10,
			}, UMWait); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.e.Run()
	frac := float64(core.UMWaitTime()) / float64(core.UMWaitTime()+core.BusyTime())
	if frac < 0.6 {
		t.Fatalf("UMWAIT fraction = %.2f, want > 0.6 for 64KB offloads", frac)
	}
}

// Every fixed-latency step of a Client call runs as a chain link, so a
// call resumes the caller at most once: an Interrupt or UMWAIT wait,
// coalesced or not, once, for the Broadcast that ends it. A link no
// pending event comes before runs in place, on the process, with no
// switch at all: a prepare and portal write into an idle device resume
// the caller 0 times (1 with every link scheduled), and so does a
// bounded re-issue loop that gives up while the queued 1 MB copies run
// (2 with every link scheduled). A re-issue loop that lasts until an
// entry frees is overtaken by the completion that frees it and resumes
// once (2 with every link scheduled). A bounded TrySubmit gives up on
// rejection maxRetries+1.
func TestClientCallsResumeOncePerBlockingCall(t *testing.T) {
	r := newRig(t, GroupConfig{Engines: 1, WQs: []WQConfig{{Mode: Shared, Size: 2}}})
	size := int64(1 << 20) // long transfers keep the queue full
	src, dst := r.alloc(size), r.alloc(size)
	wq := r.dev.WQs()[0]
	cl := NewClient(wq, nil)
	d := Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: size}
	r.e.Go("client", func(p *sim.Proc) {
		resumes := func(what string, want int64, call func()) {
			before := r.e.Resumes()
			call()
			if got := r.e.Resumes() - before; got != want {
				t.Errorf("%s: %d resumes, want %d", what, got, want)
			}
		}
		var comp *Completion
		var err error
		resumes("PrepareSubmit on a free WQ", 0, func() { comp, err = cl.PrepareSubmit(p, d, 0) })
		if err != nil {
			t.Error(err)
			return
		}
		comps := []*Completion{comp}
		for { // fill the queue
			c, err := cl.TrySubmit(p, d, 0)
			if err != nil {
				break
			}
			comps = append(comps, c)
		}
		retries := cl.Retries
		resumes("TrySubmit with 3 re-issues on a full WQ", 0, func() { _, err = cl.TrySubmit(p, d, 3) })
		if !errors.Is(err, ErrWQFull) {
			t.Errorf("bounded TrySubmit on a full WQ returned %v, want ErrWQFull", err)
		}
		if got := cl.Retries - retries; got != 4 {
			t.Errorf("TrySubmit(maxRetries=3) counted %d rejections, want 4", got)
		}
		retries = cl.Retries
		resumes("Submit re-issuing until accepted", 1, func() { comp, err = cl.Submit(p, d) })
		if err != nil {
			t.Error(err)
			return
		}
		if cl.Retries-retries < 2 {
			t.Errorf("Submit was accepted after %d rejections; the loop was never chained", cl.Retries-retries)
		}
		comps = append(comps, comp)
		resumes("Interrupt wait", 1, func() { cl.Wait(p, comps[0], Interrupt) })
		resumes("UMWAIT wait", 1, func() { cl.Wait(p, comps[1], UMWait) })
		cl.Coal = NewCoalescer(r.e, 4, 20*time.Microsecond, wq.Dev.Cfg.Timing.IntrCoalesceTick)
		if comp, err = cl.Submit(p, d); err != nil {
			t.Error(err)
			return
		}
		comps = append(comps, comp)
		resumes("coalesced Interrupt wait", 1, func() { cl.Wait(p, comp, Interrupt) })
		for _, c := range comps {
			c.Wait(p)
		}
	})
	r.e.Run()
}

// An engine release that finds no queued work only marks the engine idle,
// so it is not scheduled: a descriptor into an idle group costs two
// events, its dispatch and its completion record. A descriptor queued
// while the engine still works schedules the release, which dispatches it
// at the instant the engine frees, and a reserved release that has passed
// leaves the engine idle for the next arrival's dispatch.
func TestLazyReleaseTwoEventsPerIdleDescriptor(t *testing.T) {
	r := newRig(t, GroupConfig{Engines: 1, WQs: []WQConfig{{Mode: Shared, Size: 8}}})
	size := int64(64 << 10)
	src, dst := r.alloc(size), r.alloc(size)
	wq := r.dev.WQs()[0]
	eng := wq.Group().Engines[0]
	d := Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: size}
	hop := r.dev.Cfg.Timing.PortalHop / 2
	submit := func(at sim.Time, comp **Completion) {
		r.e.At(at, func() {
			c, err := wq.Submit(d)
			if err != nil {
				t.Error(err)
			}
			*comp = c
		})
	}

	// A lone descriptor: submit, dispatch and completion events only.
	var a, b, c *Completion
	submit(0, &a)
	r.e.Run()
	if n := r.e.Scheduled(); n != 3 {
		t.Fatalf("lone descriptor: %d events with its submit, want 3", n)
	}
	if a.DispatchTime != hop {
		t.Fatalf("lone descriptor dispatched at %v, want %v", a.DispatchTime, hop)
	}
	freeA := a.DispatchTime + eng.BusyTime()
	if want := a.FinishTime - r.dev.Cfg.Timing.CRWrite - hop; freeA != want {
		t.Fatalf("engine freed at %v, want %v", freeA, want)
	}

	// b arrives while a second descriptor holds the engine: the release
	// is scheduled and hands b the engine the instant it frees.
	var held *Completion
	base := r.e.Now() + time.Microsecond
	submit(base, &held)
	submit(base+hop+1, &b)
	before := r.e.Scheduled()
	r.e.Run()
	// The engine frees when the data lands, before the record write and
	// its hop back to the host.
	freeHeld := held.FinishTime - r.dev.Cfg.Timing.CRWrite - hop
	if n := r.e.Scheduled() - before; n != 2+2+1 {
		t.Errorf("queued descriptor: %d events after two submits, want 5 (one release)", n)
	}
	if b.DispatchTime != freeHeld {
		t.Errorf("queued descriptor dispatched at %v, want the release at %v", b.DispatchTime, freeHeld)
	}
	if held.DispatchTime != base+hop {
		t.Errorf("descriptor into a free engine dispatched at %v, want %v", held.DispatchTime, base+hop)
	}

	// c arrives after b's reserved release has passed: the engine is
	// idle, and c costs two events again.
	before = r.e.Scheduled()
	at := r.e.Now() + time.Microsecond
	submit(at, &c)
	r.e.Run()
	if n := r.e.Scheduled() - before; n != 3 {
		t.Errorf("descriptor after a passed release: %d events with its submit, want 3", n)
	}
	if c.DispatchTime != at+hop {
		t.Errorf("descriptor after a passed release dispatched at %v, want %v", c.DispatchTime, at+hop)
	}
}

// TestClosedLoopEventBudget pins the simulator's events and coroutine
// switches per descriptor in the paper's Fig 3/4 shape, the benchmark's
// device-4k point: 4 KB copies through one 32-entry dedicated WQ in front
// of 4 engines, 32 in flight, each Prepare, Submit and then, once the
// window is full, a Poll wait on the oldest. The prepare and portal-write
// sleeps and the poll checks run in place whenever they are the next
// event (sim package doc), which cut events from 5.256 to 4.719 and
// resumes from 2.257 to 1.719 per descriptor here.
func TestClosedLoopEventBudget(t *testing.T) {
	const n, qd, xfer = 4096, 32, 4 << 10
	r := newRig(t)
	src, dst := r.alloc(qd*xfer), r.alloc(qd*xfer)
	cl := NewClient(r.dev.WQs()[0], nil)
	r.e.Go("closed-loop", func(p *sim.Proc) {
		window := make([]*Completion, 0, qd)
		for i := 0; i < n; i++ {
			off := int64(i%qd) * xfer
			cl.Prepare(p)
			c, err := cl.Submit(p, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(off), Dst: dst.Addr(off), Size: xfer})
			if err != nil {
				t.Error(err)
				return
			}
			if len(window) == qd {
				cl.Wait(p, window[0], Poll)
				window = append(window[:0], window[1:]...)
			}
			window = append(window, c)
		}
		for _, c := range window {
			cl.Wait(p, c, Poll)
		}
	})
	r.e.Run()
	if got := r.dev.Stats().Completed; got != n {
		t.Fatalf("%d descriptors completed, want %d", got, n)
	}
	events, resumes := float64(r.e.Scheduled())/n, float64(r.e.Resumes())/n
	t.Logf("%.3f events and %.3f resumes per descriptor", events, resumes)
	if events > 4.72 {
		t.Errorf("%.3f events per descriptor, budget 4.72 (measured 4.719)", events)
	}
	if resumes > 1.72 {
		t.Errorf("%.3f resumes per descriptor, budget 1.72 (measured 1.719)", resumes)
	}
}
