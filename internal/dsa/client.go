package dsa

import (
	"fmt"

	"dsasim/internal/cpu"
	"dsasim/internal/sim"
)

// WaitMode selects how a client discovers completion (§3.3, §4.4).
type WaitMode int

// Completion wait modes.
const (
	// Poll spins on the completion record, burning core cycles at PollGap
	// granularity.
	Poll WaitMode = iota
	// UMWait parks the core in the UMONITOR/UMWAIT optimized wait state
	// until the completion record is written, then pays the wake latency.
	UMWait
	// Interrupt blocks on a completion interrupt: the core is fully free
	// while waiting but pays delivery latency plus handler cost — the
	// trade-off §4.4 describes against UMWAIT.
	Interrupt
)

// Client models the software side of DSA usage from one thread: descriptor
// allocation, preparation, portal submission (MOVDIR64B or ENQCMD with
// retries), and completion waiting, all with their core-side costs. Phase
// times are accumulated for the latency-breakdown and UMWAIT experiments
// (Figs 5 and 11).
type Client struct {
	WQ   *WQ
	Core *cpu.Core // optional: phase costs also charge this core

	// Coal, when non-nil, moderates this client's completion interrupts:
	// every submitted completion is tracked, and Interrupt-mode waits pay
	// one delivery + handler per coalescer window instead of one per
	// descriptor (§4.4 made cheap for small operations). Poll and UMWAIT
	// waits are unaffected. Several clients may share one Coalescer —
	// their completions then coalesce across WQs and devices.
	Coal *Coalescer

	// Cumulative phase times.
	AllocTime   sim.Time
	PrepareTime sim.Time
	SubmitTime  sim.Time
	WaitTime    sim.Time
	Retries     int64
}

// NewClient pairs a work queue with a submitting core.
func NewClient(wq *WQ, core *cpu.Core) *Client {
	return &Client{WQ: wq, Core: core}
}

func (c *Client) chargeBusy(d sim.Time) {
	if c.Core != nil {
		c.Core.ChargeBusy(d)
	}
}

// AllocDescriptors models allocating space for n descriptors plus completion
// records (the dominant naive-path cost in Fig 5, amortized away by
// preallocating in real deployments).
func (c *Client) AllocDescriptors(p *sim.Proc, n int) {
	t := c.WQ.Dev.Cfg.Timing
	d := t.DescAlloc + sim.Time(n)*t.DescAllocPer
	p.Sleep(d)
	c.AllocTime += d
	c.chargeBusy(d)
}

// Prepare models filling in one pre-allocated descriptor ("two writes",
// §4.2).
func (c *Client) Prepare(p *sim.Proc) {
	t := c.WQ.Dev.Cfg.Timing
	p.Sleep(t.DescPrepare)
	c.PrepareTime += t.DescPrepare
	c.chargeBusy(t.DescPrepare)
}

// Submit submits d through the WQ's portal with the mode-appropriate
// instruction, retrying until accepted: ENQCMD re-issues on a retry status;
// a dedicated-WQ client spins on its occupancy count. It returns the
// completion handle.
func (c *Client) Submit(p *sim.Proc, d Descriptor) (*Completion, error) {
	return c.TrySubmit(p, d, -1)
}

// TrySubmit submits like Submit but gives up on the maxRetries+1-th
// full-WQ rejection, after maxRetries re-issues, returning an error
// wrapping ErrWQFull so callers can re-schedule onto another queue or shed
// load. maxRetries < 0 retries until the descriptor is accepted.
func (c *Client) TrySubmit(p *sim.Proc, d Descriptor, maxRetries int) (*Completion, error) {
	return c.submit(p, d, maxRetries, false)
}

// PrepareSubmit is Prepare followed by TrySubmit, with the descriptor
// preparation and the first portal write run as one chain: the process
// is switched into once, for the portal write, not once per step.
func (c *Client) PrepareSubmit(p *sim.Proc, d Descriptor, maxRetries int) (*Completion, error) {
	return c.submit(p, d, maxRetries, true)
}

// submit is TrySubmit, preceded by the descriptor preparation when
// prepare is set. The first portal attempt runs on the process; only a
// rejected one pays for the re-issue chain.
func (c *Client) submit(p *sim.Proc, d Descriptor, maxRetries int, prepare bool) (*Completion, error) {
	if c.Core != nil {
		// Stamp the submitter's socket so the device prices batch
		// descriptor-array fetches against the right memory.
		d.SubmitterSocket = c.Core.Socket
	}
	instr := c.portalWrite()
	if prepare {
		p.Chain(prepareStep, c)
	} else {
		p.Sleep(instr)
	}
	c.SubmitTime += instr
	c.chargeBusy(instr)
	comp, err := c.WQ.Submit(d)
	if err == ErrWQFull {
		comp, err = c.reissue(p, &d, maxRetries)
	}
	if err != nil {
		return nil, err
	}
	if c.Coal != nil {
		// Steer the interrupt through the moderation vector while the
		// descriptor is still in flight (same event as the portal
		// write, so the record cannot have been written yet).
		c.Coal.Track(comp)
	}
	return comp, nil
}

// portalWrite is the cost of one portal write: MOVDIR64B to a dedicated
// WQ, ENQCMD to a shared one.
func (c *Client) portalWrite() sim.Time {
	if c.WQ.Mode == Shared {
		return c.WQ.Dev.Cfg.Timing.SubmitENQCMD
	}
	return c.WQ.Dev.Cfg.Timing.SubmitMOVDIR64B
}

// prepareStep and preparedStep are PrepareSubmit's chain: the descriptor
// preparation, then the first portal write.
func prepareStep(p *sim.Proc, arg any) {
	p.Then(arg.(*Client).WQ.Dev.Cfg.Timing.DescPrepare, preparedStep)
}

func preparedStep(p *sim.Proc, arg any) {
	c := arg.(*Client)
	prep := c.WQ.Dev.Cfg.Timing.DescPrepare
	c.PrepareTime += prep
	c.chargeBusy(prep)
	p.Then(c.portalWrite(), nil)
}

// call is the state of one Client call that runs as a chain of engine
// steps while its process is parked (sim.Proc.Chain). Several processes
// may be inside one Client at once, so the state is per call, pooled on
// the device.
type call struct {
	c    *Client
	comp *Completion
	// A completion wait's mode, start instant and whether its interrupt
	// is coalesced, and the time it spends once the record is written:
	// the interrupt delivery and handler, or the UMWAIT wake.
	mode      WaitMode
	start     sim.Time
	coalesced bool
	after     sim.Time
	// A re-issue's descriptor, its re-issue budget (< 0: unbounded), the
	// rejections so far and the last portal write's error.
	d        Descriptor
	max      int
	rejected int
	err      error
}

func (c *Client) getCall() *call {
	dev := c.WQ.Dev
	var r *call
	if n := len(dev.calls); n > 0 {
		r = dev.calls[n-1]
		dev.calls = dev.calls[:n-1]
	} else {
		r = new(call)
	}
	r.c = c
	return r
}

func (c *Client) putCall(r *call) {
	*r = call{}
	c.WQ.Dev.calls = append(c.WQ.Dev.calls, r)
}

// reissue handles the first full-WQ rejection of *d: it re-issues the
// portal write, after a dedicated WQ's occupancy poll, until the WQ
// accepts or the re-issue budget runs out, all in one chain.
func (c *Client) reissue(p *sim.Proc, d *Descriptor, maxRetries int) (*Completion, error) {
	r := c.getCall()
	r.d, r.max = *d, maxRetries
	p.Chain(rejectedStep, r)
	comp, err, rejected := r.comp, r.err, r.rejected
	c.putCall(r)
	if err == ErrWQFull {
		return nil, fmt.Errorf("dsa: %s WQ %d rejected descriptor %d times: %w",
			c.WQ.Dev.Cfg.Name, c.WQ.ID, rejected, ErrWQFull)
	}
	return comp, err
}

// rejectedStep counts a full-WQ rejection and, unless the budget is
// spent, arms the re-issue. Software on a dedicated WQ waits for an entry
// to free before rewriting the portal.
func rejectedStep(p *sim.Proc, arg any) {
	r := arg.(*call)
	c := r.c
	c.Retries++
	r.rejected++
	if r.max >= 0 && r.rejected > r.max {
		r.err = ErrWQFull
		return
	}
	if c.WQ.Mode == Dedicated {
		p.Then(c.WQ.Dev.Cfg.Timing.PollGap, polledStep)
		return
	}
	p.Then(c.portalWrite(), portalStep)
}

// polledStep ends a dedicated WQ's occupancy poll and re-issues the
// portal write.
func polledStep(p *sim.Proc, arg any) {
	c := arg.(*call).c
	gap := c.WQ.Dev.Cfg.Timing.PollGap
	c.WaitTime += gap
	c.chargeBusy(gap)
	p.Then(c.portalWrite(), portalStep)
}

// portalStep is a re-issued portal write.
func portalStep(p *sim.Proc, arg any) {
	r := arg.(*call)
	c := r.c
	instr := c.portalWrite()
	c.SubmitTime += instr
	c.chargeBusy(instr)
	r.comp, r.err = c.WQ.Submit(r.d)
	if r.err == ErrWQFull {
		rejectedStep(p, arg)
	}
}

// Wait blocks the calling process until comp finishes, accounting the wait
// according to mode. It returns the wait duration. Every mode switches
// into the process at most once: the steps after the completion record
// run as a chain.
func (c *Client) Wait(p *sim.Proc, comp *Completion, mode WaitMode) sim.Time {
	if mode == Poll {
		start := p.Now()
		if !comp.done {
			p.SleepPoll(c.WQ.Dev.Cfg.Timing.PollGap, completionDone, comp)
		}
		waited := p.Now() - start
		c.WaitTime += waited
		c.chargeBusy(waited)
		return waited
	}
	r, first := c.waitCall(p, comp, mode)
	p.Chain(first, r)
	return c.endWait(p, r)
}

// ArmWait starts an Interrupt or UMWait wait for comp from a step of p's
// running chain (sim.Proc.Continue), so the process is resumed once, when
// the wait ends, instead of once to start it and once more at its end.
// Once the chain has resumed the process, EndWait finishes the
// accounting Wait would have done. It reports false, arming nothing, for
// a Poll wait.
func (c *Client) ArmWait(p *sim.Proc, comp *Completion, mode WaitMode) bool {
	if mode == Poll {
		return false
	}
	r, first := c.waitCall(p, comp, mode)
	comp.armed = r
	p.Continue(first, r)
	return true
}

// EndWait finishes the wait ArmWait armed on comp, and returns its
// duration, as Wait does.
func (c *Client) EndWait(p *sim.Proc, comp *Completion) sim.Time {
	r := comp.armed
	comp.armed = nil
	return c.endWait(p, r)
}

// waitCall sets up an Interrupt or UMWait wait for comp, from now: its
// call state and the chain's first step.
func (c *Client) waitCall(p *sim.Proc, comp *Completion, mode WaitMode) (*call, sim.Step) {
	t := c.WQ.Dev.Cfg.Timing
	r := c.getCall()
	r.comp, r.mode, r.start = comp, mode, p.Now()
	if mode == UMWait {
		r.after = cpu.UMWaitWake
		return r, awaitStep
	}
	// Follow the completion's own moderation vector, not the client's
	// current one: a policy swap may have re-pointed c.Coal while this
	// descriptor was in flight, and its delivery still belongs to the
	// vector that tracked it — the old coalescer's timer/threshold will
	// announce it, and falling back to the per-descriptor path here would
	// bill a second, phantom delivery.
	if r.coalesced = comp.coal != nil; r.coalesced {
		return r, coalescedStep
	}
	r.after = t.IntrDeliver + t.IntrHandler
	return r, awaitStep
}

// endWait accounts a finished chained wait on the client and its core,
// and returns its call to the pool.
func (c *Client) endWait(p *sim.Proc, r *call) sim.Time {
	waited := p.Now() - r.start
	mode, coalesced := r.mode, r.coalesced
	c.putCall(r)
	c.WaitTime += waited
	switch {
	case mode == UMWait:
		if c.Core != nil {
			c.Core.UMWait(waited - cpu.UMWaitWake)
			c.Core.ChargeBusy(cpu.UMWaitWake)
		}
	case !coalesced:
		// Only the handler burns core cycles; the wait itself is free
		// (the core ran other work or slept).
		c.chargeBusy(c.WQ.Dev.Cfg.Timing.IntrHandler)
	}
	return waited
}

// awaitStep blocks until the completion record is written, then spends
// r.after. The record's signal is broadcast only when it is written, so
// the wait and the spend are one event.
func awaitStep(p *sim.Proc, arg any) {
	r := arg.(*call)
	if !r.comp.done {
		p.ThenWaitAfter(&r.comp.sig, r.after, nil)
		return
	}
	p.Then(r.after, nil)
}

// coalescedStep is a coalesced Interrupt wait: block until the record is
// written, then until its (shared) interrupt fires. The first waiter of
// each interrupt pays the delivery latency and handler cost; every
// sibling record announced by the same interrupt was harvested in that
// handler pass and resolves for free.
func coalescedStep(p *sim.Proc, arg any) {
	r := arg.(*call)
	comp := r.comp
	if !comp.done {
		p.ThenWait(&comp.sig, coalescedStep)
		return
	}
	if comp.intr == nil {
		// The record is in the current window: the next delivery
		// announces it.
		p.ThenWait(&comp.coal.sig, coalescedStep)
		return
	}
	t := r.c.WQ.Dev.Cfg.Timing
	d := comp.intr
	if d.paid {
		// A sibling's record is harvested by the payer's handler pass:
		// it cannot be observed before that pass completes, only read
		// for free afterwards.
		p.ThenAt(d.at+t.IntrDeliver+t.IntrHandler, nil)
		return
	}
	d.paid = true
	p.ThenAt(d.at+t.IntrDeliver, handlerStep)
}

// handlerStep and handledStep run the paying waiter's interrupt handler.
func handlerStep(p *sim.Proc, arg any) {
	p.Then(arg.(*call).c.WQ.Dev.Cfg.Timing.IntrHandler, handledStep)
}

func handledStep(_ *sim.Proc, arg any) {
	c := arg.(*call).c
	c.chargeBusy(c.WQ.Dev.Cfg.Timing.IntrHandler)
}

// completionDone is a polling wait's check of the completion record.
func completionDone(comp any) bool { return comp.(*Completion).done }

// RunSync performs one synchronous offload: prepare, submit, wait. It
// returns the completion handle after it finished.
func (c *Client) RunSync(p *sim.Proc, d Descriptor, mode WaitMode) (*Completion, error) {
	comp, err := c.PrepareSubmit(p, d, -1)
	if err != nil {
		return nil, err
	}
	c.Wait(p, comp, mode)
	return comp, nil
}
