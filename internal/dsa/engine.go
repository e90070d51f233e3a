package dsa

import (
	"time"

	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// llcLat is the access latency of LLC-resident data for the device (Fig 15's
// "L" placements) and for DDIO-steered destination writes.
const llcLat = 33 * time.Nanosecond

// Engine is one processing engine (PE). A PE processes one descriptor at a
// time (§3.2): decode/translate, then data movement through the device
// fabric and memory pipes — with memory-level parallelism inside one
// descriptor supplied by the group's read buffers — and is held until the
// descriptor's data movement completes. Throughput scaling beyond one
// descriptor therefore comes from multiple PEs per group (Fig 7) and from
// deeper in-flight windows (Fig 4). Page faults with block-on-fault stall
// the engine, which is the QoS hazard §4.3 describes.
type Engine struct {
	ID    int
	group *Group
	busy  bool

	busyTime sim.Time

	// A release that would find no queued work is not scheduled: lazy
	// marks its place in the event order, (until, seq), reserved instead.
	// The engine is idle once that place sorts before the running event;
	// work queued before then schedules the release there (armRelease).
	lazy  bool
	until sim.Time
	seq   uint64

	// releaseFn is eng.release captured once: every descriptor schedules
	// one release, and a method value allocates a closure per use.
	releaseFn func()
}

// BusyTime returns the cumulative engine front-end occupancy.
func (eng *Engine) BusyTime() sim.Time { return eng.busyTime }

// free releases the engine at instant at. With no work queued in the
// group the release would only mark the engine idle, so it reserves its
// place in the event order instead of scheduling an event.
func (eng *Engine) free(at sim.Time) {
	e := eng.group.Dev.E
	if eng.group.pending() > 0 {
		e.At(at, eng.releaseFn)
		return
	}
	eng.lazy, eng.until, eng.seq = true, at, e.Reserve()
}

// idle reports whether dispatch may hand the engine a descriptor: it is
// not busy, or its reserved release would already have run.
func (eng *Engine) idle() bool {
	return !eng.busy || eng.lazy && eng.group.Dev.E.Passed(eng.until, eng.seq)
}

// armRelease is called as work is queued in the group: a reserved
// release that has not yet passed is scheduled at its reserved place, so
// it dispatches the work when the eager release would have.
func (eng *Engine) armRelease() {
	if !eng.lazy {
		return
	}
	eng.lazy = false
	if e := eng.group.Dev.E; e.Passed(eng.until, eng.seq) {
		eng.busy = false
	} else {
		e.AtSeq(eng.until, eng.seq, eng.releaseFn)
	}
}

// release marks the engine idle and re-arms dispatch.
func (eng *Engine) release() {
	eng.busy = false
	eng.group.dispatch()
}

// execute runs one descriptor on the engine. Called from dispatch with the
// engine marked free; it must set busy and eventually free the engine.
// Every execute increments the group's inflight count exactly once; the
// matching decrement happens when the work's completion record is written.
func (eng *Engine) execute(wk *work) {
	eng.busy, eng.lazy = true, false
	g := eng.group
	d := g.Dev
	e := d.E
	now := e.Now()
	wk.comp.DispatchTime = now
	g.inflight++

	switch wk.d.Op {
	case OpBatch:
		eng.executeBatch(wk)
		return
	case OpDrain:
		eng.executeDrain(wk)
		return
	}

	t := d.Cfg.Timing
	issue := t.EngineSetup
	if wk.fromBatch {
		issue = t.BatchSubDesc
	}

	as, err := d.space(wk.d.PASID)
	if err != nil {
		eng.finish(wk, now+issue, CompletionRecord{Status: StatusError, Err: err})
		eng.free(now + issue)
		return
	}

	spans, err := spansOf(&wk.d, &wk.spans)
	if err != nil {
		eng.finish(wk, now+issue, CompletionRecord{Status: StatusError, Err: err})
		eng.free(now + issue)
		return
	}

	// Resolve every operand once (descriptor sanity, not faults): the
	// page check, the traffic booking and the deferred apply all use the
	// resolved buffer. A bad address with nothing to move fails only when
	// the operation applies its bytes, as it would reading them then.
	var unapplied error
	for i := range spans {
		sp := &spans[i]
		buf, off, err := as.Resolve(sp.addr, sp.n)
		if err != nil {
			if sp.n == 0 {
				if unapplied == nil {
					unapplied = err
				}
				continue
			}
			eng.finish(wk, now+issue, CompletionRecord{Status: StatusError, Err: err})
			eng.free(now + issue)
			return
		}
		sp.buf, sp.off = buf, off
	}

	// Address translation: the pipeline-fill translation of the first
	// page. Later pages overlap with data movement (why page size barely
	// matters, Fig 8).
	var trans sim.Time
	if len(spans) > 0 {
		trans = d.translate(wk.d.PASID, spans[0].addr)
	}

	// Page faults.
	var faultDelay sim.Time
	upTo := wk.d.Size
	faulted := false
	var faultAddr mem.Addr
	for _, sp := range spans {
		for {
			addr, absent := sp.buf.FirstAbsent(sp.off, sp.n)
			if !absent {
				break
			}
			d.stats.PageFaults++
			if wk.d.Flags&FlagBlockOnFault != 0 {
				// The engine stalls while the OS resolves the fault. The
				// page lies in a resolved buffer, so mapping it cannot fail.
				faultDelay += d.Sys.IOMMU.FaultLat()
				_ = as.ResolveFault(addr)
				continue
			}
			// Partial completion at the faulting offset.
			faulted = true
			faultAddr = addr
			if off := int64(addr - sp.addr); off < upTo {
				upTo = off
			}
			break
		}
		if faulted {
			break
		}
	}

	// Synthetic faults from the injector, resolved exactly like real ones:
	// block-on-fault stalls the engine for the OS round trip; otherwise
	// the device reports a partial completion after the fault-report cost.
	if !faulted && d.faults != nil {
		if off, hit := d.faults.roll(&wk.d, now); hit {
			d.stats.PageFaults++
			d.stats.InjectedFaults++
			if wk.d.Flags&FlagBlockOnFault != 0 {
				faultDelay += d.Sys.IOMMU.FaultLat()
			} else {
				faulted = true
				upTo = off
				if len(spans) > 0 {
					faultAddr = spans[0].addr + mem.Addr(off)
				}
				faultDelay += t.FaultReport
			}
		}
	}

	frontEnd := issue + trans + faultDelay
	dataStart := now + frontEnd

	dataDone := dataStart
	if !faulted {
		dataDone = eng.reserveData(wk, spans, dataStart)
	}
	// Completion record write plus the fabric hop back to the host LLC,
	// where software observes it.
	finishAt := dataDone + t.CRWrite + t.PortalHop/2

	rec := CompletionRecord{}
	if faulted {
		rec = CompletionRecord{Status: StatusPageFault, BytesCompleted: upTo, FaultAddr: faultAddr}
		if upTo > 0 {
			// Apply the completed prefix functionally for ops with
			// byte-wise prefixes (copy/fill); result-producing ops
			// report the fault without side effects.
			switch wk.d.Op {
			case OpMemmove, OpFill, OpCopyCRC, OpDualcast:
				pr := execute(spans, &wk.d, upTo)
				pr.Status = StatusPageFault
				pr.BytesCompleted = upTo
				pr.FaultAddr = faultAddr
				rec = pr
			}
		}
		eng.finish(wk, finishAt, rec)
	} else if unapplied != nil && wk.d.Op != OpCacheFlush {
		// A cache flush applies no bytes, so its bad address goes unseen.
		eng.finish(wk, finishAt, CompletionRecord{Status: StatusError, Err: unapplied})
	} else {
		// Defer functional execution to completion time so overlapping
		// descriptors apply in completion order.
		wk.apply = true
		eng.finish(wk, finishAt, CompletionRecord{})
	}
	eng.busyTime += dataDone - now
	eng.free(dataDone)
}

// reserveData books every shared resource the descriptor's data movement
// needs, starting at dataStart, and returns the data completion instant.
func (eng *Engine) reserveData(wk *work, spans []span, dataStart sim.Time) sim.Time {
	g := eng.group
	d := g.Dev
	t := d.Cfg.Timing

	var readBytes, writeBytes int64
	done := dataStart
	for _, sp := range spans {
		if sp.n == 0 {
			continue
		}
		buf := sp.buf
		var spDone sim.Time
		if buf.CacheResident && !sp.write {
			// LLC-resident source: no memory traffic, short latency.
			spDone = dataStart + llcLat + sim.GBps(sp.n, t.FabricGBps)
			readBytes += sp.n
		} else if sp.write {
			writeBytes += sp.n
			memBytes := sp.n
			start := dataStart
			if buf.CacheResident {
				// Fig 15 "L" destination: the lines are already hot in
				// the LLC; writes are pure cache updates.
				memBytes = 0
				spDone = start + llcLat + sim.GBps(sp.n, t.FabricGBps)
			} else if wk.d.Flags&FlagCacheControl != 0 {
				// Destination steered to the LLC via the DDIO ways
				// (§6.2 G3): only the footprint overflow leaks to memory.
				leaked := d.ddioWrite(buf, sp.n)
				d.stats.DDIOLeaked += leaked
				memBytes = leaked
				spDone = start + llcLat + sim.GBps(sp.n-leaked, t.FabricGBps)
			}
			if memBytes > 0 && buf.Node != nil {
				lat := d.Sys.AccessLat(d.Cfg.Socket, buf.Node, true)
				nd := d.Sys.ReserveTrafficAt(start, d.Cfg.Socket, buf.Node, memBytes, true)
				if nd+lat > spDone {
					spDone = nd + lat
				}
			}
			d.stats.BytesWritten += sp.n
		} else {
			readBytes += sp.n
			if buf.Node != nil {
				lat := d.Sys.AccessLat(d.Cfg.Socket, buf.Node, false)
				nd := d.Sys.ReserveTrafficAt(dataStart, d.Cfg.Socket, buf.Node, sp.n, false)
				spDone = nd + lat
			}
			d.stats.BytesRead += sp.n
		}
		if spDone > done {
			done = spDone
		}
	}

	// Device fabric carries the dominant direction.
	fb := readBytes
	if writeBytes > fb {
		fb = writeBytes
	}
	if fb > 0 {
		if fd := d.fabric.ReserveAt(dataStart, fb); fd > done {
			done = fd
		}
	}
	// Group read buffers bound sustainable read bandwidth; with an express
	// partition, top-priority reads draw from their reserved lane.
	if readBytes > 0 {
		if pipe := g.readPipeFor(wk); pipe != nil {
			if rd := pipe.ReserveAt(dataStart, readBytes); rd > done {
				done = rd
			}
		}
	}
	return done
}

// finish schedules the completion record write at instant at: rec, or,
// when wk.apply is set, the record of executing the operation then.
func (eng *Engine) finish(wk *work, at sim.Time, rec CompletionRecord) {
	wk.g, wk.rec = eng.group, rec
	eng.group.Dev.E.At(at, wk.fireFn)
}

// fire is a work's completion event: it writes the completion record and
// delivers it to waiters, the WQ's statistics and the parent batch, then
// returns the work to the device's free list.
func (wk *work) fire() {
	g := wk.g
	d := g.Dev
	rec := wk.rec
	if wk.apply {
		rec = execute(wk.spans[:], &wk.d, wk.d.Size)
	}
	d.stats.Completed++
	g.inflight--
	comp := wk.comp
	comp.complete(rec)
	if wk.wq != nil {
		wk.wq.noteCompleted(wk.d.PASID, comp.Latency())
	}
	if wk.parent != nil {
		wk.parent.childDone(wk.childIdx, rec)
	}
	g.drainSig.Broadcast(d.E)
	releaseHooked(comp)
	d.freeWork(wk)
}

// releaseHooked recycles a completion whose submitter armed a hook and
// handed it over (SetOnDone), once the device has made its last read.
func releaseHooked(c *Completion) {
	if c.onDone != nil {
		c.Release()
	}
}

// executeDrain completes once every previously dispatched descriptor in the
// group has finished (inflight drops to 1 — the drain itself). The engine is
// held for the duration, as the drain descriptor occupies its slot.
func (eng *Engine) executeDrain(wk *work) {
	g := eng.group
	d := g.Dev
	t := d.Cfg.Timing
	complete := func() {
		at := d.E.Now() + t.EngineSetup + t.CRWrite
		eng.finish(wk, at, CompletionRecord{Status: StatusSuccess})
		eng.free(at)
	}
	if g.inflight <= 1 {
		complete()
		return
	}
	d.E.Go("drain-wait", func(p *sim.Proc) {
		for g.inflight > 1 {
			p.Wait(&g.drainSig)
		}
		complete()
	})
}

// batchState aggregates a batch descriptor's children (§3.4 F2). It is
// pooled per device (Device.newBatch) and travels with the parent's
// completion once written, because the record's Children alias childRecs.
type batchState struct {
	eng       *Engine
	wk        *work
	children  []Descriptor
	childRecs []CompletionRecord // per-child records, indexed by child position
	nextIssue int
	completed int
	succeeded int
	failed    bool
	// poisoned marks a fence reached after an earlier child failed: the
	// remaining children are never attempted (their records stay
	// StatusNone) and the parent completes as soon as the issued children
	// drain. This is how a fused pipeline chain stops feeding garbage to
	// downstream stages.
	poisoned bool
	// status is the parent record's status, fixed when its write is
	// scheduled.
	status Status

	// fetchedFn and doneFn are bs.fetched and bs.done bound once, when the
	// state is first allocated: the descriptor-array fetch and the parent
	// record write schedule them without a per-batch closure.
	fetchedFn, doneFn func()
}

// executeBatch models the batch processing unit: fetch the descriptor array
// from memory in one read, then stream sub-descriptors to the group's
// engines at BatchSubDesc intervals (cheaper than portal-submitted
// descriptors, which is the Fig 3/9 batching win). The children queue on
// the WQ that accepted the batch and win engines at its priority.
func (eng *Engine) executeBatch(wk *work) {
	g := eng.group
	d := g.Dev
	t := d.Cfg.Timing
	now := d.E.Now()
	d.stats.BatchesFetched++

	n := int64(len(wk.d.Descs)) * 64
	// Fetch the descriptor array: one memory round trip plus fabric
	// occupancy for 64×N bytes. The array lives in the submitting core's
	// local memory, so the round trip is priced against the submitter's
	// home node — a device on the other socket pays the UPI hop.
	var fetchLat sim.Time = 110 * time.Nanosecond
	if home := d.Sys.HomeNode(wk.d.SubmitterSocket); home != nil {
		fetchLat = d.Sys.AccessLat(d.Cfg.Socket, home, false)
	}
	fetchDone := d.fabric.ReserveAt(now+t.EngineSetup+fetchLat, n)

	d.E.At(fetchDone, d.newBatch(eng, wk).fetchedFn)
}

// fetched ends the descriptor-array fetch: the children are queued, and
// the fetching engine frees to pick children itself.
func (bs *batchState) fetched() {
	bs.issueReady()
	bs.eng.busy = false
	bs.eng.group.dispatch()
}

// issueReady queues children up to (and including) the next fence barrier
// on the parent's WQ, ahead of that WQ's own queued entries (nextWork).
// Children after a fence wait until everything issued so far completes; a
// fence reached after a failure poisons the remainder of the batch.
func (bs *batchState) issueReady() {
	g := bs.eng.group
	wq := bs.wk.wq
	for bs.nextIssue < len(bs.children) {
		child := bs.children[bs.nextIssue]
		if child.Flags&FlagFence != 0 {
			if bs.completed < bs.nextIssue {
				return // barrier: wait for earlier children
			}
			if bs.failed {
				bs.poisoned = true
				return
			}
		}
		child.PASID = bs.wk.d.PASID
		cw := g.Dev.newWork()
		cw.d, cw.parent, cw.childIdx, cw.fromBatch = child, bs, bs.nextIssue, true
		cw.enqueued = g.Dev.E.Now()
		cw.comp = &cw.own
		cw.own.dev = g.Dev
		cw.own.SubmitTime = bs.wk.comp.SubmitTime
		bs.nextIssue++
		wq.children.Push(cw)
		g.armReleases()
	}
}

// childDone records a child completion and, when the batch is complete,
// writes the batch-granular completion record. Children can finish out of
// submission order (several engines drain the children), so the record
// lands at the child's own index.
func (bs *batchState) childDone(idx int, rec CompletionRecord) {
	bs.completed++
	bs.childRecs[idx] = rec
	if rec.Status == StatusSuccess {
		bs.succeeded++
	} else {
		bs.failed = true
	}
	g := bs.eng.group
	if !bs.poisoned && bs.nextIssue < len(bs.children) {
		bs.issueReady() // may poison at a fence after a failed child
		if !bs.poisoned {
			g.dispatch()
			return
		}
	}
	if bs.completed < bs.nextIssue {
		return // issued children still in flight
	}
	if bs.poisoned || bs.completed == len(bs.children) {
		d := g.Dev
		bs.status = StatusSuccess
		if bs.failed {
			bs.status = StatusBatchFail
		}
		d.E.At(d.E.Now()+d.Cfg.Timing.CRWrite, bs.doneFn)
	}
}

// done writes the batch parent's completion record, handing the batch
// state to the parent's completion.
func (bs *batchState) done() {
	g := bs.eng.group
	d := g.Dev
	wk := bs.wk
	comp := wk.comp
	d.stats.Completed++
	g.inflight-- // the batch parent's own inflight slot
	comp.batch = bs
	comp.complete(CompletionRecord{
		Status:   bs.status,
		Result:   uint64(bs.succeeded),
		Children: bs.childRecs,
	})
	if wk.wq != nil {
		wk.wq.noteCompleted(wk.d.PASID, comp.Latency())
	}
	g.drainSig.Broadcast(d.E)
	d.freeWork(wk)
	releaseHooked(comp)
}
