package fleet

import (
	"fmt"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// bufSlots is how many payload slots each shard buffer rotates through,
// so consecutive operations touch distinct addresses within one
// allocation instead of one hot line.
const bufSlots = 4

// crossMod/crossCut: connections with conn%crossMod < crossCut deliver
// to the remote socket (~30% cross-socket traffic), which is what makes
// the placement scheduler's socket decisions matter.
const (
	crossMod = 10
	crossCut = 3
)

// reapItem is one outstanding foreground op a shard's reaper must
// resolve: its future and its scheduled arrival instant.
type reapItem struct {
	fut *offload.Future
	arr sim.Time
}

// brokerBurst is one compiled broker pipeline — per message a CopyCRC from
// the bound producer slot into scratch, then a fenced copy to the bound
// consumer slot — with the arrival instants of the burst it carries. The
// pipeline's own driver process resolves each burst (newBurst's hook), so
// no reaper waits on one.
type brokerBurst struct {
	pl       *offload.Pipeline
	src, dst []offload.Ref
	arrs     []sim.Time
}

// pendingMsg is a broker message waiting for its burst to fill.
type pendingMsg struct {
	arr  sim.Time
	conn int
}

// shardBufs is one shard's payload slabs in the frontend's address
// space, one src/dst pair per socket.
type shardBufs struct {
	src [2]*mem.Buffer
	dst [2]*mem.Buffer
}

// driver is one scenario run: the rig, the tenant population, and the
// per-(phase, class) accumulators. The engine is single-threaded, so the
// shared slices need no locking — determinism falls out of the seeded
// generators plus the engine's deterministic event order.
type driver struct {
	sc  Scenario
	e   *sim.Engine
	svc *offload.Service

	front *offload.Tenant
	plane *offload.Plane
	fg    []*fgTenant
	pop   *zipf
	conns []int // connection -> foreground tenant slot

	bufs []shardBufs

	bounds []sim.Time // cumulative phase end instants
	acc    [][nClasses]classAcc

	reapQ   []sim.FIFO[reapItem]
	reapSig []sim.Signal
	subDone []bool
	// fgWait is the mode the reapers wait for foreground completions
	// in: the foreground tenants' policy Wait.
	fgWait offload.WaitMode

	// bursts is each shard's free list of idle full-Burst broker
	// pipelines, compiled once and rebound per burst.
	bursts [][]*brokerBurst

	// retired holds churned-out tenants so their SLO counters are
	// harvested at the end, after late futures resolve.
	retired []*offload.Tenant

	// win tracks windowed per-class latency for the recovery metric;
	// non-nil only when the scenario arms a fault plan.
	win *winTrack
}

// Run executes one scenario and returns its measurement. A fixed
// Scenario (seed included) reproduces the Result bit-for-bit.
func Run(sc Scenario) Result { return run(sc).result() }

// run executes one scenario until its engine drains and returns the
// driver, whose accumulators and engine tests read directly.
func run(sc Scenario) *driver {
	d := newDriver(sc)
	for s := 0; s < sc.Shards; s++ {
		s := s
		d.e.Go(fmt.Sprintf("fleet-sub-%d", s), d.submitter(s))
		d.e.Go(fmt.Sprintf("fleet-reap-%d", s), d.reaper(s))
	}
	d.e.Run()
	return d
}

func newDriver(sc Scenario) *driver {
	e, svc, devs := fleetRig()
	d := &driver{sc: sc, e: e, svc: svc, fgWait: fgPolicy(sc).Wait}
	if sc.Faults != nil {
		d.win = newWinTrack()
		for di, dev := range devs {
			if _, err := dev.InjectFaults(sc.Faults.config(sc.Seed, di)); err != nil {
				panic(err)
			}
		}
	}

	front, err := svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.Bulk), offload.TenantPolicy(frontPolicy(sc)))
	if err != nil {
		panic(err)
	}
	d.front = front
	if !sc.Pipeline {
		pl, err := front.NewPlane(sc.Shards)
		if err != nil {
			panic(err)
		}
		pl.OnCompletion(d.bgCompleted)
		d.plane = pl
	}

	d.bufs = make([]shardBufs, sc.Shards)
	for s := range d.bufs {
		for sock := 0; sock < 2; sock++ {
			d.bufs[s].src[sock] = front.AllocOn(sock, sc.BgSize*bufSlots)
			d.bufs[s].dst[sock] = front.AllocOn(sock, sc.BgSize*bufSlots)
		}
	}

	d.fg = make([]*fgTenant, sc.Tenants)
	for i := range d.fg {
		d.fg[i] = newFgTenant(svc, sc, i%2)
	}
	d.pop = newZipf(sc.Tenants, sc.ZipfS)
	rng := sim.NewRand(sc.Seed)
	d.conns = make([]int, sc.Conns)
	for i := range d.conns {
		d.conns[i] = d.pop.sample(rng)
	}

	d.bounds = make([]sim.Time, len(sc.Phases))
	at := sim.Time(0)
	for i, ph := range sc.Phases {
		at += sim.Time(ph.Dur)
		d.bounds[i] = at
	}
	d.acc = make([][nClasses]classAcc, len(sc.Phases))
	d.reapQ = make([]sim.FIFO[reapItem], sc.Shards)
	d.reapSig = make([]sim.Signal, sc.Shards)
	d.subDone = make([]bool, sc.Shards)
	d.bursts = make([][]*brokerBurst, sc.Shards)
	return d
}

// phaseAt attributes an instant to the phase it was scheduled in;
// anything past the last boundary (a backlog draining after the
// schedule) belongs to the final phase.
func (d *driver) phaseAt(t sim.Time) int {
	for i, b := range d.bounds {
		if t < b {
			return i
		}
	}
	return len(d.bounds) - 1
}

// bgCompleted is the plane's completion observer: the stamp is the
// scheduled arrival, so the stamped latency is already open-loop, and
// the arrival instant (and with it the phase) is recovered from it. ok
// is false for operations that ended failed (retry budget spent, shed
// with no live ring to fail over to, or refused by the WQ) — those score
// as failures, not goodput.
func (d *driver) bgCompleted(lat sim.Time, ok bool) {
	arr := d.e.Now() - lat
	d.record(arr, BG, lat, d.sc.BgSLO, !ok)
}

// record scores one completion against its arrival's phase cell and, when
// a fault plan is armed, the windowed recovery tracker.
func (d *driver) record(arr sim.Time, cls Class, lat sim.Time, budget time.Duration, failed bool) {
	d.acc[d.phaseAt(arr)][cls].record(lat, budget, failed)
	if d.win != nil {
		d.win.add(arr, cls, lat, failed)
	}
}

// submitter drives one shard's open-loop arrival schedule through every
// phase. SleepUntil is a no-op when the shard is already behind its
// schedule, which is exactly the open-loop property: arrivals do not
// slow down because the shard is slow, the backlog just shows up in the
// arrival-stamped latencies.
func (d *driver) submitter(s int) func(p *sim.Proc) {
	sc := d.sc
	return func(p *sim.Proc) {
		rng := sim.NewRand(sc.Seed ^ 0x9E3779B97F4A7C15*uint64(s+1))
		gen := newArrivals(sc.Seed ^ 0xD1B54A32D192ED03*uint64(s+1))
		shardRate := sc.BaseRate / float64(sc.Shards)
		var pending []pendingMsg
		count := 0
		next, start := sim.Time(0), sim.Time(0)
		for pi, ph := range sc.Phases {
			for {
				next += gen.next(ph, shardRate, next-start, sim.Time(ph.Dur))
				if next >= d.bounds[pi] {
					break
				}
				p.SleepUntil(next)
				d.arrive(p, s, rng, pi, next, &pending)
				count++
				if sc.ConnChurn > 0 && count%sc.ConnChurn == 0 {
					d.conns[rng.Intn(len(d.conns))] = d.pop.sample(rng)
				}
				if sc.TenantChurn > 0 && count%sc.TenantChurn == 0 {
					d.churnTenant(p, rng)
				}
			}
			start = d.bounds[pi]
		}
		d.flushBurst(p, s, &pending)
		d.subDone[s] = true
		d.reapSig[s].Broadcast(d.e)
	}
}

// arrive dispatches one arrival: pick a connection, pick a class, route.
func (d *driver) arrive(p *sim.Proc, s int, rng *sim.Rand, pi int, at sim.Time, pending *[]pendingMsg) {
	ci := rng.Intn(len(d.conns))
	if rng.Float64() < d.sc.FgShare {
		d.fgOp(p, s, pi, at, ci)
		return
	}
	d.bgOp(p, s, pi, at, ci, pending)
}

// fgOp submits one foreground request on the connection's tenant: an
// express-lane hardware copy, reaped by the shard's reaper so the
// submitter never blocks on a completion.
func (d *driver) fgOp(p *sim.Proc, s, pi int, at sim.Time, ci int) {
	a := &d.acc[pi][FG]
	a.arrivals++
	ft := d.fg[d.conns[ci]]
	f, err := ft.tn.Copy(p, ft.dst.Addr(0), ft.src.Addr(0), d.sc.FgSize, offload.On(offload.Hardware))
	if err != nil {
		a.shed++
		return
	}
	d.enqueue(s, reapItem{fut: f, arr: at})
}

// route maps a connection to its source socket, destination socket, and
// payload slot offset — pure functions of the connection index so churn
// re-homing does not need per-connection state.
func (d *driver) route(ci int) (srcSock, dstSock int, off int64) {
	srcSock = ci & 1
	dstSock = srcSock
	if ci%crossMod < crossCut {
		dstSock = 1 - srcSock
	}
	return srcSock, dstSock, int64(ci%bufSlots) * d.sc.BgSize
}

// bgOp routes one background payload: through the shard's plane lane
// (packet switch), or into the shard's pending burst (message broker).
func (d *driver) bgOp(p *sim.Proc, s, pi int, at sim.Time, ci int, pending *[]pendingMsg) {
	a := &d.acc[pi][BG]
	a.arrivals++
	if d.sc.Pipeline {
		*pending = append(*pending, pendingMsg{arr: at, conn: ci})
		if len(*pending) >= d.sc.Burst {
			d.flushBurst(p, s, pending)
		}
		return
	}
	srcSock, dstSock, off := d.route(ci)
	b := &d.bufs[s]
	err := d.plane.Lane(s).SubmitStamped(p, dsa.Descriptor{
		Op:   dsa.OpMemmove,
		Src:  b.src[srcSock].Addr(off),
		Dst:  b.dst[dstSock].Addr(off),
		Size: d.sc.BgSize,
	}, at)
	if err != nil {
		a.shed++
	}
}

// flushBurst fuses the shard's pending broker messages into one
// CRC→copy pipeline DAG and submits it for one admission token. A full
// burst rebinds an idle compiled pipeline from the shard's free list; only
// the end-of-schedule short burst builds a one-off. A shed DAG sheds every
// message it carried, each against its own arrival's phase. A submitted
// burst is resolved by its pipeline's completion hook (newBurst).
func (d *driver) flushBurst(p *sim.Proc, s int, pending *[]pendingMsg) {
	msgs := *pending
	if len(msgs) == 0 {
		return
	}
	var bb *brokerBurst
	if free := d.bursts[s]; len(msgs) == d.sc.Burst && len(free) > 0 {
		bb, d.bursts[s] = free[len(free)-1], free[:len(free)-1]
	} else {
		bb = d.newBurst(s, len(msgs))
	}
	b := &d.bufs[s]
	bb.arrs = bb.arrs[:0]
	for i, m := range msgs {
		bb.arrs = append(bb.arrs, m.arr)
		srcSock, dstSock, off := d.route(m.conn)
		bb.pl.Bind(bb.src[i], b.src[srcSock].Addr(off))
		bb.pl.Bind(bb.dst[i], b.dst[dstSock].Addr(off))
	}
	*pending = msgs[:0]
	if _, err := bb.pl.Submit(p); err != nil {
		for _, arr := range bb.arrs {
			d.acc[d.phaseAt(arr)][BG].shed++
		}
		d.release(s, bb)
	}
}

// newBurst declares an n-message broker pipeline for shard s. Its
// completion hook resolves each burst in the pipeline's own driver
// process, the instant the last chain's wait ends: it records every
// message as ending then, releases the Future, and returns the idle
// pipeline to the shard's free list. The reaper never parks on a burst,
// so a foreground record written meanwhile is reaped on its own.
func (d *driver) newBurst(s, n int) *brokerBurst {
	pl := d.front.NewPipeline()
	bb := &brokerBurst{pl: pl, src: make([]offload.Ref, n), dst: make([]offload.Ref, n), arrs: make([]sim.Time, 0, n)}
	pl.Then(func(p *sim.Proc, f *offload.Future) {
		_, err := f.Wait(p, offload.Interrupt) // already ran: no park
		end := d.e.Now()
		for _, arr := range bb.arrs {
			d.record(arr, BG, end-arr, d.sc.BgSLO, err != nil)
		}
		f.Release()
		d.release(s, bb)
	})
	for i := range bb.src {
		staged := pl.Scratch(d.sc.BgSize)
		bb.src[i], bb.dst[i] = pl.Arg(), pl.Arg()
		crc := pl.CopyCRC(staged, bb.src[i], d.sc.BgSize, 0)
		pl.Copy(bb.dst[i], staged, d.sc.BgSize, offload.After(crc))
	}
	return bb
}

// release returns an idle full-Burst pipeline to the shard's free list;
// the short end-of-schedule burst is dropped.
func (d *driver) release(s int, bb *brokerBurst) {
	if len(bb.src) == d.sc.Burst {
		d.bursts[s] = append(d.bursts[s], bb)
	}
}

// churnTenant retires one random foreground tenant and binds a
// replacement. The replacement takes the slot before the close, so no
// shard ever routes to a closed tenant; the retiree's in-flight futures
// keep resolving and its SLO counters are harvested at the end. The
// shard stalls for BindCost — the PASID bind is control-plane work that
// lands on the data path's tail.
func (d *driver) churnTenant(p *sim.Proc, rng *sim.Rand) {
	slot := rng.Intn(len(d.fg))
	old := d.fg[slot]
	d.fg[slot] = newFgTenant(d.svc, d.sc, slot%2)
	if err := old.tn.Close(p); err != nil {
		panic(err)
	}
	d.retired = append(d.retired, old.tn)
	p.Sleep(sim.Time(d.sc.BindCost))
}

// enqueue hands a foreground op to the shard's reaper.
func (d *driver) enqueue(s int, it reapItem) {
	d.reapQ[s].Push(it)
	d.reapSig[s].Broadcast(d.e)
}

// reaper resolves one shard's outstanding foreground futures in FIFO
// order, recording each op's open-loop latency (completion − scheduled
// arrival) against its arrival's phase and the foreground budget. Each
// Future is released once resolved, with its completion, so the next
// arrival reuses both. The reaper holds foreground futures only: broker
// bursts resolve in their pipelines' driver processes (newBurst), the way
// the paper's DPDK Vhost path never makes a latency-critical completion
// wait behind a bulk transfer.
//
// The reaper waits in the foreground tenants' policy mode (fgWait:
// UMWAIT, see fgPolicy). Completions are reaped in batches, as
// rte_dma_completed does: the wake-up that ends one wait also reads every
// record written behind it, so each following future already Done is
// harvested at that instant with no wait of its own. The reaper waits again only on the first
// record not yet written. A harvested record that faulted still
// recovers, its retry waited for in the same mode.
//
// An idle reaper waits for work as a chain (reapIdle): the step the
// signal wakes pops the item and starts its future's wait in the same
// chain, so the reaper is resumed once, when that wait ends, not also
// for the signal.
func (d *driver) reaper(s int) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		r := &reapWake{d: d, s: s}
		q := &d.reapQ[s]
		for {
			it, ok := q.Pop()
			if !ok {
				if d.subDone[s] {
					return
				}
				p.Chain(reapIdle, r)
				if !r.have {
					continue
				}
				it, r.have = r.it, false
			}
			_, err := it.fut.Wait(p, d.fgWait)
			d.reaped(it, err)
			for it, ok = q.Peek(); ok && it.fut.Done(); it, ok = q.Peek() {
				q.Pop()
				_, err = it.fut.Harvest(p, d.fgWait)
				d.reaped(it, err)
			}
		}
	}
}

// reaped records a resolved foreground op as ending now and releases its
// Future.
func (d *driver) reaped(it reapItem, err error) {
	it.fut.Release()
	d.record(it.arr, FG, d.e.Now()-it.arr, d.sc.FgSLO, err != nil)
}

// reapWake is an idle reaper's chain state: its shard, and the item the
// wake step popped for the process to finish.
type reapWake struct {
	d    *driver
	s    int
	it   reapItem
	have bool
}

// reapIdle parks an idle reaper on its shard's signal.
func reapIdle(p *sim.Proc, arg any) {
	r := arg.(*reapWake)
	p.ThenWait(&r.d.reapSig[r.s], reapPop)
}

// reapPop runs in the signal's wake event: it pops the next item and
// starts its future's wait, in the foreground mode, in the running
// chain. With nothing queued (the submitter finished), or a future
// ArmWait leaves to Wait, the chain ends and the process takes over.
func reapPop(p *sim.Proc, arg any) {
	r := arg.(*reapWake)
	it, ok := r.d.reapQ[r.s].Pop()
	if !ok {
		return
	}
	r.it, r.have = it, true
	it.fut.ArmWait(p, r.d.fgWait)
}

// result assembles the per-phase tables and the offload-layer SLO
// cross-check once the engine has drained.
func (d *driver) result() Result {
	res := Result{Scenario: d.sc.Name}
	for pi, ph := range d.sc.Phases {
		ps := PhaseStats{Name: ph.Name}
		durS := ph.Dur.Seconds()
		for c := Class(0); c < nClasses; c++ {
			a := &d.acc[pi][c]
			ps.Offered[c] = float64(a.arrivals) / durS / 1e3
			ps.Goodput[c] = float64(a.good) / durS / 1e3
			ps.Shed[c] = a.shed
			ps.Failed[c] = a.failed
			if a.done > 0 {
				ps.P99[c] = time.Duration(a.lat.Quantile(0.99))
				ps.P999[c] = time.Duration(a.lat.Quantile(0.999))
				ps.Max[c] = time.Duration(a.lat.Max())
			}
		}
		res.Phases = append(res.Phases, ps)
	}
	tally := func(tn *offload.Tenant) {
		st := tn.Stats()
		res.SLOOk += st.SLOOk
		res.SLOMiss += st.SLOMiss
		res.Faults += st.Faults
		res.Retries += st.Retries
		res.Fallbacks += st.Fallbacks
		res.Failovers += st.Failovers
	}
	tally(d.front)
	for _, ft := range d.fg {
		tally(ft.tn)
	}
	for _, tn := range d.retired {
		tally(tn)
	}
	if d.win != nil {
		res.RecoveryWindows, res.Recovered =
			d.win.recoveredAfter(d.sc.Faults.injectEnd(), d.sc.FgSLO, d.sc.BgSLO)
	}
	return res
}
