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

// TrySubmit submits like Submit but gives up after maxRetries full-WQ
// rejections, returning an error wrapping ErrWQFull so callers can
// re-schedule onto another queue or shed load. maxRetries < 0 retries
// until the descriptor is accepted.
func (c *Client) TrySubmit(p *sim.Proc, d Descriptor, maxRetries int) (*Completion, error) {
	t := c.WQ.Dev.Cfg.Timing
	if c.Core != nil {
		// Stamp the submitter's socket so the device prices batch
		// descriptor-array fetches against the right memory.
		d.SubmitterSocket = c.Core.Socket
	}
	rejected := 0
	for {
		instr := t.SubmitMOVDIR64B
		if c.WQ.Mode == Shared {
			instr = t.SubmitENQCMD
		}
		p.Sleep(instr)
		c.SubmitTime += instr
		c.chargeBusy(instr)
		comp, err := c.WQ.Submit(d)
		if err == ErrWQFull {
			c.Retries++
			rejected++
			if maxRetries >= 0 && rejected > maxRetries {
				return nil, fmt.Errorf("dsa: %s WQ %d rejected descriptor %d times: %w",
					c.WQ.Dev.Cfg.Name, c.WQ.ID, rejected, ErrWQFull)
			}
			if c.WQ.Mode == Dedicated {
				// Software waits for an entry to free before rewriting
				// the portal.
				p.Sleep(t.PollGap)
				c.WaitTime += t.PollGap
				c.chargeBusy(t.PollGap)
			}
			continue
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
}

// Wait blocks the calling process until comp finishes, accounting the wait
// according to mode. It returns the wait duration.
func (c *Client) Wait(p *sim.Proc, comp *Completion, mode WaitMode) sim.Time {
	t := c.WQ.Dev.Cfg.Timing
	start := p.Now()
	switch mode {
	case Interrupt:
		// Follow the completion's own moderation vector, not the client's
		// current one: a policy swap may have re-pointed c.Coal while this
		// descriptor was in flight, and its delivery still belongs to the
		// vector that tracked it — the old coalescer's timer/threshold will
		// announce it, and falling back to the per-descriptor path here
		// would bill a second, phantom delivery.
		if k := comp.coal; k != nil {
			// Coalesced delivery: block until the record is written, then
			// until its (shared) interrupt fires. The first waiter of each
			// interrupt pays the delivery latency and handler cost; every
			// sibling record announced by the same interrupt was harvested
			// in that handler pass and resolves for free.
			comp.Wait(p)
			d := k.waitDelivered(p, comp)
			if !d.paid {
				d.paid = true
				p.SleepUntil(d.at + t.IntrDeliver)
				p.Sleep(t.IntrHandler)
				c.chargeBusy(t.IntrHandler)
			} else {
				// A sibling's record is harvested by the payer's handler
				// pass: it cannot be observed before that pass completes,
				// only read for free afterwards.
				p.SleepUntil(d.at + t.IntrDeliver + t.IntrHandler)
			}
			waited := p.Now() - start
			c.WaitTime += waited
			return waited
		}
		comp.Wait(p)
		p.Sleep(t.IntrDeliver + t.IntrHandler)
		waited := p.Now() - start
		c.WaitTime += waited
		// Only the handler burns core cycles; the wait itself is free
		// (the core ran other work or slept).
		c.chargeBusy(t.IntrHandler)
		return waited
	case UMWait:
		comp.Wait(p)
		p.Sleep(cpu.UMWaitWake)
		waited := p.Now() - start
		c.WaitTime += waited
		if c.Core != nil {
			c.Core.UMWait(waited - cpu.UMWaitWake)
			c.Core.ChargeBusy(cpu.UMWaitWake)
		}
		return waited
	default: // Poll
		if !comp.done {
			p.SleepPoll(t.PollGap, completionDone, comp)
		}
		waited := p.Now() - start
		c.WaitTime += waited
		c.chargeBusy(waited)
		return waited
	}
}

// completionDone is a polling wait's check of the completion record.
func completionDone(comp any) bool { return comp.(*Completion).done }

// RunSync performs one synchronous offload: prepare, submit, wait. It
// returns the completion handle after it finished.
func (c *Client) RunSync(p *sim.Proc, d Descriptor, mode WaitMode) (*Completion, error) {
	c.Prepare(p)
	comp, err := c.Submit(p, d)
	if err != nil {
		return nil, err
	}
	c.Wait(p, comp, mode)
	return comp, nil
}
