// The sharded submission plane: per-shard lanes feeding bounded per-WQ
// rings, drained by an event-driven consumer instead of timers.
//
// The classic Tenant path serializes every submitter through one
// AutoBatcher and one coalescer rebuild check. One submitter never
// notices; at 64 the shared state is the queue. The plane gives each
// submitting process its own lane and funnels descriptors into each WQ's
// ENQCMD path through a bounded ring (dsa.SubmitRing).
//
// The plane does not route. A lane push, a fault retry and a failover
// re-queue each ask the service scheduler for a WQ (Scheduler.Pick, on
// the request a Future's dispatch would build) and land on that WQ's
// ring, so the express-lane reservation, data-home placement and every
// other scheduler rule hold on the plane as they do on the Future path.
// A ring's queued entries count toward its WQ's backlog (dsa.WQ.Load),
// so a load-reading scheduler sees what the lanes have queued. The one
// choice left to the plane is the last resort of a re-queue whose picked
// ring is unhealthy or full: the first healthy ring that takes it.
//
// The simulation runs on one goroutine, so rings, counters and health
// flags are plain data. What sharding buys is priced in virtual time:
// each lane pays its ENQCMD portal write in its own timeline, and
// submitters sharing a ring serialize only on the slot-publish CAS,
// Timing.RingPush.
//
// Neither side of a ring polls. A lane that finds its ring full waits
// until a pop picks it; the drain that finds a WQ full parks until the
// WQ's ready hook (an entry left, or its health flipped) or a push shows
// a pass could move something. Each retry still lands on the instant a
// poll every Timing.PollGap would have used (gridNext), so the waits
// replace the shared-WQ ENQCMD retry loop of §3.2 on the same retry
// instants; only the order of events that share an instant can differ.
//
// Every lane admits through the tenant's one admission bucket
// (Tenant.admit), the bucket Futures, batches and pipelines draw: the
// simulation prices no contention on it, and a bucket split per lane
// sheds each lane's Poisson clumps while the tenant is under its rate.
// Completions flow through the unchanged device completion path —
// including interrupt coalescing, whose resolved count also paces the
// plane's wakeup moderation. A faulted completion consults the tenant's
// one retry decision (recover.go) and re-queues its remainder, the
// attempt count carried in the ring tag; an entry the drain finds behind
// a dead WQ, and a lane whose ring's WQ died while it waited for space,
// take the same re-queue (push).
package offload

import (
	"errors"
	"fmt"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// Plane is a tenant's sharded submission front end: N Lanes (one per
// submitting process) over one bounded SubmitRing per service WQ, a
// drain that moves ring entries into the device WQs, and completion-side
// wakeup moderation. Build one with Tenant.NewPlane; hand each submitter
// its own Lane.
type Plane struct {
	t     *Tenant
	lanes []*Lane
	rings []*dsa.SubmitRing

	// wqs and topo are the service's WQ set and placement index at
	// NewPlane, ring i feeding wqs[i]. The plane's picks run over them,
	// not the service's current set: a WQ hot-plugged later
	// (Service.AddWQs) has no ring.
	wqs  []*dsa.WQ
	topo *Topology

	// ringTok serializes concurrent virtual-time pushes into one ring:
	// a capacity-1 slot held for Timing.RingPush models the CAS that
	// publishes a slot — the only cross-submitter serialization left,
	// priced at nanoseconds instead of a lock's microseconds.
	ringTok []*sim.Token

	// waiting lists, per ring, the lanes that found it full, in wait
	// order. Each pop wakes one of them (wakeLane); the rest stay parked.
	waiting [][]*Lane

	// pending counts entries pushed to rings but not yet accepted by a
	// WQ; inflight counts WQ-accepted descriptors not yet completed.
	pending  int64
	inflight int64

	// Completion-side wakeup moderation: completed() broadcasts doneSig
	// every wakeEvery-th completion (resolved from the tenant's
	// coalescing count) or when inflight drains to zero, so a waiter at
	// 64 outstanding ops is not woken 64 times.
	doneSig   sim.Signal
	wakeEvery int64
	compCount int64

	// onLat, when set, observes the stamped latency of every operation's
	// end (see OnCompletion). Installed before traffic starts, invoked
	// from the device completion path and the drain.
	onLat func(lat sim.Time, ok bool)

	// drainOn marks the drain as running: a pass is scheduled, or it is
	// parked, blocked on a full WQ with no pass scheduled. drainAt is the
	// instant of the pass that parked it, which anchors its retry grid.
	// held/holding are its per-ring scratch (an entry popped but not yet
	// WQ-accepted), owned by the plane so a drain burst allocates nothing.
	// The drain stops only with pending at zero, so it leaves holding all
	// false.
	drainOn bool
	parked  bool
	drainAt sim.Time
	held    []dsa.RingEntry
	holding []bool

	// gap is Timing.PollGap, the retry grid's spacing for lanes and drain.
	gap sim.Time

	// drainFn and completedFn are pl.drain and pl.completed bound once:
	// a method value allocates a closure per use, and every drain pass
	// and every WQ acceptance passes one.
	drainFn     func()
	completedFn func(c *dsa.Completion, tag uint64)
}

// Lane is one submitting process's way into the plane: its retry state
// when its ring is full. A Lane belongs to exactly one submitting
// process; admission and the scheduler's pick are the tenant's.
type Lane struct {
	pl *Plane
	id int
	// published is the instant SubmitStamped's slot publish ends; retry
	// is the entry a ring-full SubmitStamped re-pushes to retryRing, and
	// retryAt the instant of its last push attempt, or of the one a pop
	// has scheduled. space wakes the lane when a pop picks it.
	published sim.Time
	retry     dsa.RingEntry
	retryRing int
	retryAt   sim.Time
	space     sim.Signal
}

// NewPlane attaches a sharded submission plane with nlanes lanes to the
// tenant. One plane per tenant, one ring per service WQ. Returns
// an error if the tenant already has a plane or another plane already
// drains any service WQ (one plane per WQ set: the plane owns each WQ's
// ready hook).
func (t *Tenant) NewPlane(nlanes int) (*Plane, error) {
	if nlanes < 1 {
		return nil, fmt.Errorf("offload: plane needs at least 1 lane, got %d", nlanes)
	}
	if t.plane != nil {
		return nil, fmt.Errorf("offload: tenant already has a submission plane")
	}
	wqs := t.S.wqs
	pl := &Plane{
		t:       t,
		wqs:     wqs,
		topo:    t.S.topo,
		rings:   make([]*dsa.SubmitRing, len(wqs)),
		ringTok: make([]*sim.Token, len(wqs)),
		waiting: make([][]*Lane, len(wqs)),
		held:    make([]dsa.RingEntry, len(wqs)),
		holding: make([]bool, len(wqs)),
		gap:     wqs[0].Dev.Cfg.Timing.PollGap,
	}
	pl.drainFn, pl.completedFn = pl.drain, pl.completed
	for i, wq := range wqs {
		if err := wq.SetOnReady(func() { pl.wake(i) }); err != nil {
			pl.unhook(i)
			return nil, fmt.Errorf("offload: another plane drains wq %d of %s: %w", wq.ID, wq.Dev.Cfg.Name, err)
		}
		pl.rings[i] = dsa.NewSubmitRing(wq.Size)
		pl.ringTok[i] = sim.NewToken(1)
		wq.SetFeed(pl.rings[i])
	}
	count, _ := t.coalesceParams()
	pl.wakeEvery = 1
	if count > 1 {
		pl.wakeEvery = int64(count)
	}
	pl.lanes = make([]*Lane, nlanes)
	for i := range pl.lanes {
		pl.lanes[i] = &Lane{pl: pl, id: i}
	}
	t.plane = pl
	return pl, nil
}

// Plane returns the tenant's submission plane, or nil before NewPlane.
func (t *Tenant) Plane() *Plane { return t.plane }

// Lane returns the i-th lane. Each submitting context must own its lane
// exclusively.
func (pl *Plane) Lane(i int) *Lane { return pl.lanes[i] }

// Lanes returns the lane count.
func (pl *Plane) Lanes() int { return len(pl.lanes) }

// WQs returns the work queues the plane feeds, indexed like its rings.
func (pl *Plane) WQs() []*dsa.WQ { return pl.wqs }

// OnCompletion registers fn to observe the stamped latency of every plane
// operation: the span from the submission's stamp (the submit instant,
// or the caller-provided stamp of SubmitStamped) to the completion record
// write, or to the instant the drain ended it. ok reports whether the
// operation ultimately succeeded — false means a terminal fault after the
// retry budget, an entry shed with no healthy ring to take it, or one the WQ
// refused (the fleet driver scores those against the SLO as failures, not
// goodput). Install before traffic starts; the hook runs on the device
// completion path and in the drain, so it must not block.
func (pl *Plane) OnCompletion(fn func(lat sim.Time, ok bool)) { pl.onLat = fn }

// Pending returns entries pushed to rings but not yet WQ-accepted.
func (pl *Plane) Pending() int64 { return pl.pending }

// Inflight returns WQ-accepted descriptors not yet completed.
func (pl *Plane) Inflight() int64 { return pl.inflight }

// pick asks the service scheduler for d's WQ, on the request dispatch
// builds for a Future but over the plane's own WQ set, and returns the
// index of that WQ's ring; -1 when the scheduler picked a WQ the plane
// does not feed. Allocation-free.
func (pl *Plane) pick(d *dsa.Descriptor) int {
	req := pl.t.request(d)
	req.Topo = pl.topo
	wq := pl.t.S.sched.Pick(req, pl.wqs)
	for i, w := range pl.wqs {
		if w == wq {
			return i
		}
	}
	return -1
}

// push is the plane's one re-queue, taken by a faulted completion's
// remainder and by an entry failed over off a dead WQ: the ring of the
// WQ the scheduler picks for it or, when that WQ is unhealthy or its
// ring full, the first healthy ring that takes it — any detour beats
// failing the op. It returns false when no ring takes the entry, which
// the caller then ends failed.
func (pl *Plane) push(d dsa.Descriptor, tag uint64) bool {
	if i := pl.pick(&d); i >= 0 && pl.wqs[i].Healthy() && pl.rings[i].TryPush(d, tag) {
		return true
	}
	for i := range pl.rings {
		if pl.wqs[i].Healthy() && pl.rings[i].TryPush(d, tag) {
			return true
		}
	}
	return false
}

// Submit is the plane's way in: the tenant's admission, a WQ from the
// service scheduler, and the push onto that WQ's ring, charging virtual
// time the way hardware does — the ENQCMD issue in the submitter's own
// timeline (64 procs pay it in parallel, not in series) and the ring's
// slot-publish CAS as a capacity-1 token held for Timing.RingPush, the
// only serialization point left between submitters sharing a ring. The
// drain is scheduled lazily and the submission completes through the
// normal device path. The completion is stamped with the submit instant
// (see SubmitStamped).
func (l *Lane) Submit(p *sim.Proc, d dsa.Descriptor) error {
	return l.SubmitStamped(p, d, p.Now())
}

// SubmitStamped is Submit with an explicit latency stamp: the instant the
// operation logically entered the system, carried through the ring to the
// completion path, where the stamp-to-record span is scored against the
// tenant's SLO budget and handed to the OnCompletion observer. Open-loop
// drivers (internal/fleet) stamp the scheduled arrival time instead of
// the submit instant, so time an overloaded shard spends behind its own
// backlog counts against the SLO the way a waiting client would see it —
// the standard guard against coordinated omission.
func (l *Lane) SubmitStamped(p *sim.Proc, d dsa.Descriptor, stamp sim.Time) error {
	pl := l.pl
	t := pl.t
	if err := t.admit(p); err != nil {
		return err
	}
	d.PASID = t.AS.PASID
	d.Flags |= t.policy.Flags
	idx := pl.pick(&d)
	if idx < 0 {
		return fmt.Errorf("offload: lane %d: scheduler %q picked a WQ the plane does not feed", l.id, t.S.sched.Name())
	}
	tm := pl.wqs[0].Dev.Cfg.Timing
	// The slot-publish CAS: submitters racing into one ring serialize
	// for RingPush nanoseconds each, in arrival order. The portal write
	// after it is per-submitter work: each lane's proc pays it in its own
	// virtual timeline. The two run as one chain.
	l.published = pl.ringTok[idx].Acquire(p.Now(), tm.RingPush) + tm.RingPush
	p.Chain(publishStep, l)
	if !pl.rings[idx].TryPush(d, stampTag(stamp)) {
		l.retry, l.retryRing, l.retryAt = dsa.RingEntry{D: d, Tag: stampTag(stamp)}, idx, p.Now()
		p.Chain(ringWait, l)
	}
	t.stats.HWOps++
	t.stats.HWBytes += d.Size
	pl.pending++
	pl.ensureDrain()
	return nil
}

// publishStep and enqcmdStep are SubmitStamped's chain: the ring's
// slot publish, then the ENQCMD portal write.
func publishStep(p *sim.Proc, arg any) {
	p.ThenAt(arg.(*Lane).published, enqcmdStep)
}

func enqcmdStep(p *sim.Proc, arg any) {
	p.Then(arg.(*Lane).pl.wqs[0].Dev.Cfg.Timing.SubmitENQCMD, nil)
}

// gridNext returns the first instant of the poll grid anchored at last
// (last + k·gap, k ≥ 1) at or after now: where a loop that polls every
// gap from last makes its first attempt that could see an event at now.
// Lanes re-try their ring pushes, and the drain its passes, on it.
func gridNext(last, gap, now sim.Time) sim.Time {
	next := last + gap
	if late := now - next; late > 0 {
		next += (late + gap - 1) / gap * gap
	}
	return next
}

// ringWait, ringSpace and ringRetry are SubmitStamped's ring-full chain.
// The lane re-tries its push on the grid of a poll every Timing.PollGap
// from its first attempt, but only at the grid point a pop picked it
// for: a full ring stays full until the drain pops it, and a pop frees
// one slot, which the waiting lane whose grid reaches it first would
// take. ringWait parks the lane until a pop picks it.
func ringWait(p *sim.Proc, arg any) {
	l := arg.(*Lane)
	l.pl.waiting[l.retryRing] = append(l.pl.waiting[l.retryRing], l)
	p.ThenWait(&l.space, ringSpace)
}

// ringSpace runs in the wake event of the pop that picked the lane:
// retry at the grid point the pop chose.
func ringSpace(p *sim.Proc, arg any) {
	p.ThenAt(arg.(*Lane).retryAt, ringRetry)
}

// ringRetry re-tries the push, and waits for another pop when a
// submitter that never waited took the freed slot first. A lane whose
// ring's WQ died while it waited takes the plane's one re-queue (push)
// instead, and is shed when no ring takes its entry; either way it hands
// the slot it was woken for to the next waiter, which meets the same dead
// WQ. No lane entry reaches a dead WQ's refused Submit.
func ringRetry(p *sim.Proc, arg any) {
	l := arg.(*Lane)
	pl, i := l.pl, l.retryRing
	if pl.wqs[i].Healthy() {
		if !pl.rings[i].TryPush(l.retry.D, l.retry.Tag) {
			ringWait(p, arg)
		}
		return
	}
	if pl.push(l.retry.D, l.retry.Tag) {
		pl.ensureDrain()
	} else {
		pl.shed(l.retry.Tag)
	}
	pl.wakeLane(i)
}

// ensureDrain starts the drain if it is idle, and resumes it if it is
// parked and a pass could now move a ring. The drain stops when the rings
// empty, keeping the event loop free of perpetual timers.
func (pl *Plane) ensureDrain() {
	if !pl.drainOn {
		pl.drainOn = true
		pl.t.S.E.After(0, pl.drainFn)
		return
	}
	for i := 0; pl.parked && i < len(pl.rings); i++ {
		pl.wake(i)
	}
}

// wake is WQ i's ready hook: it resumes a parked drain when a pass could
// move ring i. The pass runs on the drain's grid, at the instant its
// every-PollGap poll would first have seen the change.
func (pl *Plane) wake(i int) {
	if !pl.parked || !pl.ready(i) {
		return
	}
	pl.parked = false
	e := pl.t.S.E
	e.At(gridNext(pl.drainAt, pl.gap, e.Now()), pl.drainFn)
}

// ready reports whether a drain pass would change ring i: pop into its
// empty hold slot, or hand the held entry to a WQ that has room or has
// failed.
func (pl *Plane) ready(i int) bool {
	if !pl.holding[i] {
		return pl.rings[i].Len() > 0
	}
	wq := pl.wqs[i]
	return wq.Occupancy() < wq.Size || !wq.Healthy()
}

// drain moves ring entries into the device WQs: pop, WQ.Submit (zero
// virtual cost — the submitter already paid the portal write in its own
// timeline), hook the completion for wakeup moderation. It judges each
// Submit in one place:
//   - accepted: the entry is in flight;
//   - dsa.ErrWQFull: hold the entry, and park until a WQ's ready hook or
//     a push wakes the drain (see wake);
//   - the WQ is unhealthy (a disable window or device outage): fail the
//     entry over through push, and shed it when no ring takes it;
//   - any other refusal (an oversized transfer, say): end it failed.
//
// Each pass is one engine callback that runs until the rings run dry, so
// a dead WQ's ring empties in the pass that finds it dead.
func (pl *Plane) drain() {
	held, holding := pl.held, pl.holding
	blocked := false
	for i, wq := range pl.wqs {
		for {
			if !holding[i] {
				e, ok := pl.pop(i)
				if !ok {
					break
				}
				held[i], holding[i] = e, true
			}
			comp, err := wq.Submit(held[i].D)
			if errors.Is(err, dsa.ErrWQFull) {
				blocked = true
				break
			}
			holding[i] = false
			if err == nil {
				comp.SetOnDone(pl.completedFn, held[i].Tag)
				pl.inflight++
				pl.pending--
				continue
			}
			if !wq.Healthy() {
				pl.t.stats.Failovers++
				pl.t.S.met.failover()
				if pl.push(held[i].D, held[i].Tag) {
					continue
				}
			}
			// Refused, or failed over with no ring to take it.
			pl.shed(held[i].Tag)
		}
	}
	if pl.pending == 0 {
		pl.drainOn = false
		return
	}
	if !blocked {
		// New pushes landed behind our scan at this instant.
		pl.t.S.E.After(0, pl.drainFn)
		return
	}
	// Waiting on WQ slots: park until a pass could move a ring. A push
	// that landed behind the scan resumes it one grid step on at once.
	pl.parked, pl.drainAt = true, pl.t.S.E.Now()
	pl.ensureDrain()
}

// pop takes ring i's oldest entry and wakes a lane waiting for the freed
// slot.
func (pl *Plane) pop(i int) (dsa.RingEntry, bool) {
	e, ok := pl.rings[i].Pop()
	if ok {
		pl.wakeLane(i)
	}
	return e, ok
}

// wakeLane wakes the lane waiting on ring i whose next untried grid point
// comes first, the longest waiter on a tie: under a poll every PollGap
// that lane would take the slot a pop frees, and every other waiter
// would find the ring full again. The others stay parked, so a pop costs
// two events however many lanes wait.
func (pl *Plane) wakeLane(i int) {
	w := pl.waiting[i]
	if len(w) == 0 {
		return
	}
	now := pl.t.S.E.Now()
	k, at := 0, gridNext(w[0].retryAt, pl.gap, now)
	for j := 1; j < len(w); j++ {
		if g := gridNext(w[j].retryAt, pl.gap, now); g < at {
			k, at = j, g
		}
	}
	l := w[k]
	copy(w[k:], w[k+1:])
	w[len(w)-1] = nil
	pl.waiting[i] = w[:len(w)-1]
	l.retryAt = at
	l.space.Broadcast(pl.t.S.E)
}

// Ring tags carry the submission's latency stamp in the low 56 bits
// (2^56 ns is ~2 years of virtual time) and the fault-retry attempt count
// in the top 8, so recovery needs no per-operation state.
const (
	tagAttemptShift = 56
	tagStampMask    = uint64(1)<<tagAttemptShift - 1
)

// stampTag encodes a submission's latency stamp into the ring tag.
func stampTag(at sim.Time) uint64 { return uint64(at) & tagStampMask }

// tagStamp extracts the latency stamp.
func tagStamp(tag uint64) sim.Time { return sim.Time(tag & tagStampMask) }

// tagAttempt extracts the fault-retry attempt count.
func tagAttempt(tag uint64) int { return int(tag >> tagAttemptShift) }

// tagRetry returns the tag for the next attempt, stamp preserved.
func tagRetry(tag uint64) uint64 {
	return tag&tagStampMask | uint64(tagAttempt(tag)+1)<<tagAttemptShift
}

// end ends one plane operation: a success scores its stamped latency
// against the tenant's SLO, a failure counts in Stats.Failures, and the
// OnCompletion observer sees either.
func (pl *Plane) end(tag uint64, ok bool) {
	lat := pl.t.S.E.Now() - tagStamp(tag)
	if ok {
		pl.t.recordSLO(lat)
	} else {
		pl.t.stats.Failures++
	}
	if pl.onLat != nil {
		pl.onLat(lat, ok)
	}
}

// shed ends a pending entry no WQ took as failed. Shedding the last
// outstanding entry wakes WaitInflight's barrier, as the last completion
// does.
func (pl *Plane) shed(tag uint64) {
	pl.pending--
	pl.end(tag, false)
	if pl.pending+pl.inflight == 0 {
		pl.doneSig.Broadcast(pl.t.S.E)
	}
}

// completed is the plane's completion hook (dsa.Completion.SetOnDone):
// recover faulted completions within the policy's retry budget, else end
// the operation, decrement inflight, and wake waiters — every
// wakeEvery-th completion, or immediately when the plane drains to zero,
// mirroring how interrupt coalescing amortizes delivery.
func (pl *Plane) completed(c *dsa.Completion, tag uint64) {
	rec := c.Record()
	if _, retry := pl.t.faulted(&rec, tagAttempt(tag)+1); retry && pl.retry(c, rec, tag) {
		return // remainder re-queued; the op is still in flight
	}
	pl.end(tag, rec.Status == dsa.StatusSuccess)
	pl.inflight--
	if pl.inflight == 0 {
		pl.doneSig.Broadcast(pl.t.S.E)
	} else if pl.compCount++; pl.compCount%pl.wakeEvery == 0 {
		pl.doneSig.Broadcast(pl.t.S.E)
	}
}

// retry re-queues the unfinished remainder of a faulted plane submission
// (push), carrying the original latency stamp so the recovered op's SLO
// span includes every retry round trip. The remainder counts in
// Stats.HWOps/HWBytes, as a Future or pipeline re-submission does through
// Tenant.dispatch. Returns false when no ring can take it — the completion
// then surfaces as a failure.
func (pl *Plane) retry(c *dsa.Completion, rec dsa.CompletionRecord, tag uint64) bool {
	rem := remainderOf(*c.Desc(), rec)
	if !pl.push(rem, tagRetry(tag)) {
		return false
	}
	pl.t.stats.HWOps++
	pl.t.stats.HWBytes += rem.Size
	pl.t.retried()
	pl.inflight--
	pl.pending++
	pl.ensureDrain()
	return true
}

// WaitInflight parks the process until at most max operations remain
// outstanding (pending in rings plus inflight on devices). max 0 is a
// full barrier. Wakeups are moderated by the plane's completion hook,
// so deep pipelines pay one wakeup per coalescing window, not per op.
func (pl *Plane) WaitInflight(p *sim.Proc, max int64) {
	for pl.pending+pl.inflight > max {
		pl.ensureDrain()
		p.Wait(&pl.doneSig)
	}
}

// Close detaches the plane from its WQs so a successor plane (a
// replacement tenant's, under churn) can attach. It refuses while work
// is outstanding — WaitInflight(p, 0) first — because the rings' single
// consumer is this plane's drain. The tenant is left planeless, not
// closed: Tenant.Close is the lifecycle call, this is its plane half.
func (pl *Plane) Close() error {
	if n := pl.pending + pl.inflight; n != 0 {
		return fmt.Errorf("offload: plane closed with %d operations outstanding", n)
	}
	pl.unhook(len(pl.wqs))
	pl.t.plane = nil
	return nil
}

// unhook removes the plane's ready hook and ring from its first n WQs.
func (pl *Plane) unhook(n int) {
	for _, wq := range pl.wqs[:n] {
		wq.SetOnReady(nil)
		wq.SetFeed(nil)
	}
}
