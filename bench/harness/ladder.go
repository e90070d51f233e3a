package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
	"dsasim/internal/telemetry"
)

// The layer ladder calls each layer's public entry point directly, in a
// loop, from outside the program: sim (event heap, procs), mem (address
// spaces), telemetry (digests), dsa (WQ, engines, completions), offload
// (Future path, Plane, Pipeline, recovery, tenant binding). Every rung
// runs twice, untraced and traced; host cost and allocations come from
// the untraced pass, spans from the traced one, and the difference is the
// tracing overhead. Virtual-time splits are identical in both passes.

// rung is one ladder step.
type rung struct {
	name   string // metric prefix
	calls  int    // calls per pass at ladder scale 1
	allocs bool   // report <name>.allocs
	bytes  bool   // report <name>.bytes
	run    func(n int, tr *tracer) rungOut
}

// rungOut is what one pass of a rung measured over its n calls.
type rungOut struct {
	host    time.Duration // host time of the measured calls
	mallocs uint64
	bytes   uint64
	virt    map[string]sim.Time // summed virtual time per split
	count   map[string]float64  // summed per-call counts
	err     error
}

// meter brackets a measured section: host time plus heap allocations.
type meter struct {
	start      time.Time
	mallocs    uint64
	totalAlloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{start: time.Now(), mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc}
}

func (m meter) stop() rungOut {
	host := time.Since(m.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rungOut{host: host, mallocs: ms.Mallocs - m.mallocs, bytes: ms.TotalAlloc - m.totalAlloc}
}

// ladder is every rung in bottom-up layer order.
func ladder() []rung {
	return []rung{
		{name: "sim.event", calls: 1_000_000, allocs: true, run: simEvent},
		{name: "sim.proc_switch", calls: 200_000, allocs: true, run: procSwitch},
		{name: "mem.alloc", calls: 40_000, allocs: true, bytes: true, run: memAlloc},
		{name: "telemetry.record", calls: 2_000_000, run: telemetryRecord},
		{name: "telemetry.sync", calls: 40_000, run: telemetrySync},
		{name: "dsa.op4k", calls: 50_000, allocs: true, run: dsaCopy(4<<10, true)},
		{name: "dsa.op32k", calls: 20_000, run: dsaCopy(32<<10, false)},
		{name: "dsa.batch16", calls: 10_000, allocs: true, run: dsaBatch16},
		{name: "offload.future", calls: 30_000, allocs: true, run: offloadFuture},
		{name: "offload.plane", calls: 20_000, allocs: true, run: offloadPlane},
		{name: "offload.pipeline", calls: 3_000, allocs: true, run: offloadPipeline},
		{name: "offload.recover", calls: 20_000, allocs: true, run: offloadRecover},
		{name: "offload.tenant_bind", calls: 1_000, allocs: true, run: tenantBind},
	}
}

// ladderResult is the ladder's per-layer metrics and the spans of its
// traced pass.
type ladderResult struct {
	metrics map[string]metric
	calls   int64
	failed  int64 // calls of passes whose check failed
	trace   *tracer
	errs    []error
}

// runLadder runs every rung untraced and then traced, back to back so the
// pair sees the same machine, with n = calls × scale (at least 1), and
// returns the per-layer metrics. Untraced host times are calibrated
// against calibration passes around the whole ladder.
func runLadder(scale float64, spansPerRung int) ladderResult {
	rungs := ladder()
	res := ladderResult{metrics: map[string]metric{}, trace: newTracer(spansPerRung)}
	var plain, traced []rungOut
	ns := make([]int, len(rungs))
	runtime.GC()
	before := calibrate()
	for i, r := range rungs {
		ns[i] = max(1, int(float64(r.calls)*scale))
		runtime.GC()
		plain = append(plain, r.run(ns[i], nil))
		runtime.GC()
		res.trace.beginRung(r.name, i)
		traced = append(traced, r.run(ns[i], res.trace))
		res.trace.endRung()
	}
	after := calibrate()
	var plainHost, tracedHost time.Duration
	for i, r := range rungs {
		n, out := float64(ns[i]), plain[i]
		res.calls += 2 * int64(ns[i])
		for _, o := range []rungOut{out, traced[i]} {
			if o.err != nil {
				res.failed += int64(ns[i])
				res.errs = append(res.errs, fmt.Errorf("%s: %w", r.name, o.err))
			}
		}
		plainHost += out.host
		tracedHost += traced[i].host
		res.metrics[r.name+".host_ns"] = metric{calibrated(out.host, before, after) / n, "ns"}
		if r.allocs {
			res.metrics[r.name+".allocs"] = metric{float64(out.mallocs) / n, "count"}
		}
		if r.bytes {
			res.metrics[r.name+".bytes"] = metric{float64(out.bytes) / n, "B"}
		}
		for k, v := range out.virt {
			res.metrics[r.name+"."+k] = metric{float64(v) / n, "sim_ns"}
		}
		for k, v := range out.count {
			res.metrics[r.name+"."+k] = metric{v / n, "count"}
		}
	}
	res.metrics["trace.overhead_frac"] = metric{float64(tracedHost)/float64(plainHost) - 1, "frac"}
	return res
}

func simEvent(n int, tr *tracer) rungOut {
	e := sim.New()
	noop := func() {}
	m := startMeter()
	for i := 0; i < n; i++ {
		s := tr.begin("sim.event", spanRef{}, e.Now())
		e.After(1, noop)
		e.Run()
		tr.end(s, e.Now())
	}
	return m.stop()
}

func procSwitch(n int, tr *tracer) rungOut {
	e := sim.New()
	e.Go("ladder", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			s := tr.begin("sim.proc_switch", spanRef{}, p.Now())
			p.Sleep(1)
			tr.end(s, p.Now())
		}
	})
	m := startMeter()
	e.Run()
	return m.stop()
}

// memAlloc allocates 4 KB buffers into address spaces of up to 64
// regions (Alloc keeps its region list sorted, so cost grows with it).
func memAlloc(n int, tr *tracer) rungOut {
	var as *mem.AddressSpace
	m := startMeter()
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			as = mem.NewAddressSpace(1)
		}
		s := tr.begin("mem.alloc", spanRef{}, 0)
		as.Alloc(4 << 10)
		tr.end(s, 0)
	}
	return m.stop()
}

func telemetryRecord(n int, tr *tracer) rungOut {
	hub := telemetry.NewHub(0)
	id := hub.Stream("ladder")
	sh := hub.NewShard()
	m := startMeter()
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 100
		s := tr.begin("telemetry.record", spanRef{}, at)
		sh.Record(id, at, int64(i&4095))
		tr.end(s, at)
	}
	return m.stop()
}

// telemetrySync times each Hub.Sync merging 16 buffered samples from each
// of 4 shards; the recording between syncs is outside the timed calls.
func telemetrySync(n int, tr *tracer) rungOut {
	hub := telemetry.NewHub(0)
	var ids []telemetry.ID
	var shards []*telemetry.Shard
	for k := 0; k < 4; k++ {
		ids = append(ids, hub.Stream(fmt.Sprintf("ladder-%d", k)))
		shards = append(shards, hub.NewShard())
	}
	var at sim.Time
	var host time.Duration
	m := startMeter()
	for i := 0; i < n; i++ {
		for k, sh := range shards {
			for j := 0; j < 16; j++ {
				at += 100
				sh.Record(ids[k], at, int64(j))
			}
		}
		s := tr.begin("telemetry.sync", spanRef{}, at)
		t0 := time.Now()
		hub.Sync(at)
		host += time.Since(t0)
		tr.end(s, at)
	}
	out := m.stop()
	out.host = host
	return out
}

// sameBytes reports a functional copy failure.
func sameBytes(src, dst []byte) error {
	if !bytes.Equal(src, dst) {
		return fmt.Errorf("destination bytes differ from the source")
	}
	return nil
}

// dsaCopy is Client.Submit + Client.Wait(Poll) of one memmove on
// device-4k's rig. With splits, the call's virtual time is split at the
// completion's Submit/Dispatch/Finish stamps: submit (portal write) +
// queue (WQ wait) + service (engine and memory) + wait (poll detection)
// add up to the whole call.
func dsaCopy(size int64, splits bool) func(int, *tracer) rungOut {
	name := fmt.Sprintf("dsa.op%dk", size>>10)
	return func(n int, tr *tracer) rungOut {
		rig := newDeviceRig(0)
		e := rig.e
		cl := dsa.NewClient(rig.dev.WQs()[0], nil)
		d := dsa.Descriptor{Op: dsa.OpMemmove, PASID: rig.as.PASID, Src: rig.src.Addr(0), Dst: rig.dst.Addr(0), Size: size}
		var submit, queue, service, wait sim.Time
		var bad error
		e.Go("ladder", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				t0 := p.Now()
				s := tr.begin(name, spanRef{}, t0)
				ss := tr.begin("submit", s, t0)
				c, err := cl.Submit(p, d)
				if err != nil {
					bad = err
					return
				}
				t1 := p.Now()
				tr.end(ss, t1)
				sw := tr.begin("wait", s, t1)
				cl.Wait(p, c, dsa.Poll)
				t2 := p.Now()
				tr.end(sw, t2)
				tr.end(s, t2)
				if st := c.Record().Status; st != dsa.StatusSuccess {
					bad = fmt.Errorf("completion status %v", st)
				}
				submit += t1 - t0
				queue += c.DispatchTime - c.SubmitTime
				service += c.FinishTime - c.DispatchTime
				wait += t2 - c.FinishTime
			}
		})
		m := startMeter()
		e.Run()
		out := m.stop()
		if splits {
			out.virt = map[string]sim.Time{"submit_virt_ns": submit, "queue_virt_ns": queue,
				"service_virt_ns": service, "wait_virt_ns": wait}
		}
		out.err = firstErr(bad, sameBytes(rig.src.Bytes()[:size], rig.dst.Bytes()[:size]))
		return out
	}
}

// dsaBatch16 submits one batch descriptor of 16 1 KB memmoves on
// device-4k's rig and polls its completion.
func dsaBatch16(n int, tr *tracer) rungOut {
	const children, size = 16, 1 << 10
	rig := newDeviceRig(0)
	e := rig.e
	subs := make([]dsa.Descriptor, children)
	for i := range subs {
		off := int64(i) * size
		subs[i] = dsa.Descriptor{Op: dsa.OpMemmove, Src: rig.src.Addr(off), Dst: rig.dst.Addr(off), Size: size}
	}
	d := dsa.Descriptor{Op: dsa.OpBatch, PASID: rig.as.PASID, Descs: subs}
	cl := dsa.NewClient(rig.dev.WQs()[0], nil)
	var service sim.Time
	var bad error
	e.Go("ladder", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			s := tr.begin("dsa.batch16", spanRef{}, p.Now())
			c, err := cl.Submit(p, d)
			if err != nil {
				bad = err
				return
			}
			cl.Wait(p, c, dsa.Poll)
			tr.end(s, p.Now())
			if st := c.Record().Status; st != dsa.StatusSuccess {
				bad = fmt.Errorf("batch status %v", st)
			}
			service += c.FinishTime - c.DispatchTime
		}
	})
	m := startMeter()
	e.Run()
	out := m.stop()
	out.virt = map[string]sim.Time{"service_virt_ns": service}
	out.err = firstErr(bad, sameBytes(rig.src.Bytes()[:children*size], rig.dst.Bytes()[:children*size]))
	return out
}

// fleetShapedRig is the fleet scenarios' platform: one DSA per socket with
// two engines behind an express (priority 15) and a bulk shared WQ,
// placement-qos scheduling, the SPR core model. faults, when non-nil, arms
// every device's injector.
func fleetShapedRig(faults *dsa.FaultConfig) (*sim.Engine, *offload.Service) {
	e := sim.New()
	sys := sprSystem(e)
	var wqs []*dsa.WQ
	for socket := 0; socket < 2; socket++ {
		dev := dsa.New(e, sys, dsa.DefaultConfig(fmt.Sprintf("dsa%d", socket), socket))
		if _, err := dev.AddGroup(dsa.GroupConfig{
			Engines:     2,
			ExpressBufs: 24,
			WQs: []dsa.WQConfig{
				{Mode: dsa.Shared, Size: 8, Priority: 15},
				{Mode: dsa.Shared, Size: 24, Priority: 5},
			},
		}); err != nil {
			panic(err)
		}
		if err := dev.Enable(); err != nil {
			panic(err)
		}
		if faults != nil {
			cfg := *faults
			cfg.Seed += uint64(socket)
			if _, err := dev.InjectFaults(cfg); err != nil {
				panic(err)
			}
		}
		wqs = append(wqs, dev.WQs()...)
	}
	svc, err := offload.NewService(e, sys, wqs,
		offload.WithScheduler(offload.NewPlacementQoS()), offload.WithCPUModel(cpu.SPRModel()))
	if err != nil {
		panic(err)
	}
	return e, svc
}

// fgPolicy is a fleet foreground tenant's policy: load-aware placement,
// per-descriptor interrupts, the 30 µs class budget.
func fgPolicy() offload.Policy {
	pol := offload.DefaultPolicy()
	pol.LoadAware = true
	pol.Wait = offload.Interrupt
	pol.SLOBudget = 30 * time.Microsecond
	return pol
}

// bulkPolicy is the fleet background plane's policy without admission
// limits: coalesced adaptive interrupts, bounded WQ retries.
func bulkPolicy() offload.Policy {
	pol := offload.DefaultPolicy()
	pol.LoadAware = true
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 16
	pol.CoalesceWindow = 8 * time.Microsecond
	pol.CoalesceAdaptive = true
	pol.MaxRetries = 2
	pol.SLOBudget = 120 * time.Microsecond
	return pol
}

func newTenant(svc *offload.Service, socket int, class offload.QoSClass, pol offload.Policy) *offload.Tenant {
	tn, err := svc.NewTenant(offload.OnSocket(socket), offload.WithClass(class), offload.TenantPolicy(pol))
	if err != nil {
		panic(err)
	}
	return tn
}

// tenantPair allocates a seeded source and a destination of size bytes
// in the tenant's local memory.
func tenantPair(tn *offload.Tenant, size int64) (src, dst *mem.Buffer) {
	src, dst = tn.Alloc(size), tn.Alloc(size)
	sim.NewRand(uint64(size) + 1).Bytes(src.Bytes())
	return src, dst
}

// futureCopy is the Future path: Tenant.Copy(Hardware) + Future.Wait
// (Interrupt) of one 4 KB copy, split at the Copy return.
func futureCopy(name string, n int, tr *tracer, faults *dsa.FaultConfig) rungOut {
	e, svc := fleetShapedRig(faults)
	pol := fgPolicy()
	if faults != nil {
		pol.RetryMax = 2
		pol.FallbackAfter = 3
	}
	tn := newTenant(svc, 0, offload.LatencySensitive, pol)
	src, dst := tenantPair(tn, 4<<10)
	var submit, wait sim.Time
	var bad error
	e.Go("ladder", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			t0 := p.Now()
			s := tr.begin(name, spanRef{}, t0)
			ss := tr.begin("submit", s, t0)
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 4<<10, offload.On(offload.Hardware))
			if err != nil {
				bad = err
				return
			}
			t1 := p.Now()
			tr.end(ss, t1)
			sw := tr.begin("wait", s, t1)
			if _, err := f.Wait(p, offload.Interrupt); err != nil && faults == nil {
				bad = err
			}
			t2 := p.Now()
			tr.end(sw, t2)
			tr.end(s, t2)
			submit += t1 - t0
			wait += t2 - t1
		}
	})
	m := startMeter()
	e.Run()
	out := m.stop()
	out.virt = map[string]sim.Time{"wait_virt_ns": wait}
	if faults == nil {
		out.virt["submit_virt_ns"] = submit
	} else {
		out.count = map[string]float64{"retries_per_op": float64(tn.Stats().Retries)}
	}
	out.err = firstErr(bad, sameBytes(src.Bytes(), dst.Bytes()))
	return out
}

func offloadFuture(n int, tr *tracer) rungOut { return futureCopy("offload.future", n, tr, nil) }

// offloadRecover is the Future path under a page-fault rate of 0.1 per
// 4 KB page with the default recovery knobs (RetryMax 2, fallback after 3
// consecutive faults). A terminal fault is a measured outcome here, not a
// benchmark failure; the destination still has to match the source.
func offloadRecover(n int, tr *tracer) rungOut {
	return futureCopy("offload.recover", n, tr, &dsa.FaultConfig{Seed: 0xFA017, PageFaultPer4K: 0.1})
}

// offloadPlane is one 32 KB Lane.SubmitStamped on a one-lane plane,
// drained with WaitInflight; the stamped latency comes from the plane's
// completion observer.
func offloadPlane(n int, tr *tracer) rungOut {
	e, svc := fleetShapedRig(nil)
	tn := newTenant(svc, 0, offload.Bulk, bulkPolicy())
	pl, err := tn.NewPlane(1)
	if err != nil {
		panic(err)
	}
	var lat sim.Time
	failed := 0
	pl.OnCompletion(func(l sim.Time, ok bool) {
		lat += l
		if !ok {
			failed++
		}
	})
	src, dst := tenantPair(tn, 32<<10)
	d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 32 << 10}
	var submit sim.Time
	var bad error
	e.Go("ladder", func(p *sim.Proc) {
		lane := pl.Lane(0)
		for i := 0; i < n; i++ {
			t0 := p.Now()
			s := tr.begin("offload.plane", spanRef{}, t0)
			ss := tr.begin("submit", s, t0)
			if err := lane.SubmitStamped(p, d, t0); err != nil {
				bad = err
				return
			}
			t1 := p.Now()
			tr.end(ss, t1)
			sw := tr.begin("wait", s, t1)
			pl.WaitInflight(p, 0)
			t2 := p.Now()
			tr.end(sw, t2)
			tr.end(s, t2)
			submit += t1 - t0
		}
	})
	m := startMeter()
	e.Run()
	out := m.stop()
	out.virt = map[string]sim.Time{"submit_virt_ns": submit, "lat_virt_ns": lat}
	if failed > 0 {
		bad = firstErr(bad, fmt.Errorf("%d plane operations failed", failed))
	}
	out.err = firstErr(bad, sameBytes(src.Bytes(), dst.Bytes()))
	return out
}

// offloadPipeline is the message broker's burst: four 16 KB messages, each
// CopyCRC into scratch then a dependent copy out, fused into one DAG,
// submitted and waited.
func offloadPipeline(n int, tr *tracer) rungOut {
	const msgs, size = 4, 16 << 10
	e, svc := fleetShapedRig(nil)
	tn := newTenant(svc, 0, offload.Bulk, bulkPolicy())
	src, dst := tenantPair(tn, msgs*size)
	var submit, wait sim.Time
	var bad error
	e.Go("ladder", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			t0 := p.Now()
			s := tr.begin("offload.pipeline", spanRef{}, t0)
			ss := tr.begin("submit", s, t0)
			pl := tn.NewPipeline()
			for m := int64(0); m < msgs; m++ {
				staged := pl.Scratch(size)
				crc := pl.CopyCRC(staged, offload.At(src.Addr(m*size)), size, 0)
				pl.Copy(offload.At(dst.Addr(m*size)), staged, size, offload.After(crc))
			}
			f, err := pl.Submit(p)
			if err != nil {
				bad = err
				return
			}
			t1 := p.Now()
			tr.end(ss, t1)
			sw := tr.begin("wait", s, t1)
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				bad = err
			}
			t2 := p.Now()
			tr.end(sw, t2)
			tr.end(s, t2)
			submit += t1 - t0
			wait += t2 - t1
		}
	})
	m := startMeter()
	e.Run()
	out := m.stop()
	out.virt = map[string]sim.Time{"submit_virt_ns": submit, "wait_virt_ns": wait}
	out.err = firstErr(bad, sameBytes(src.Bytes(), dst.Bytes()))
	return out
}

// tenantBind is the fleet's tenant-churn path: bind a latency-sensitive
// tenant (PASID bind on every device, telemetry streams) and allocate its
// two 4 KB payload buffers.
func tenantBind(n int, tr *tracer) rungOut {
	_, svc := fleetShapedRig(nil)
	pol := fgPolicy()
	m := startMeter()
	for i := 0; i < n; i++ {
		s := tr.begin("offload.tenant_bind", spanRef{}, 0)
		tn := newTenant(svc, i%2, offload.LatencySensitive, pol)
		tn.Alloc(4 << 10)
		tn.Alloc(4 << 10)
		tr.end(s, 0)
	}
	return m.stop()
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
