package dsa

import (
	"dsasim/internal/sim"
)

// Completion is the software-visible handle for one submitted descriptor:
// the model's stand-in for polling a completion record in memory. It records
// the submit → dispatch → finish timeline used by the latency-breakdown
// experiments (Fig 5).
//
// Like the record it models, a Completion is memory the submitter owns and
// reuses: WQ.Submit takes one from its device's free list, and Release
// hands a done one back. A submitter that never calls Release simply leaves
// its completions to the garbage collector.
type Completion struct {
	dev  *Device
	rec  CompletionRecord
	done bool
	sig  sim.Signal

	// coal, when non-nil, moderates this completion's interrupt: the
	// record joins the coalescer's window when written, and intr is set
	// when the (possibly shared) interrupt fires. Poll and UMWAIT waits
	// ignore both — they observe the record directly.
	coal *Coalescer
	intr *intrDelivery

	// onDone, when set, runs after the record is written and waiters are
	// woken, passing back the completion and the tag stamped at
	// submission. The sharded submission plane uses it for completion
	// accounting and fault retries: the hook is one function stored per
	// plane, so arming it costs two word writes and no per-operation
	// closure.
	onDone    func(c *Completion, tag uint64)
	onDoneTag uint64

	// armed is the wait Client.ArmWait started, until EndWait ends it.
	armed *call

	// desc is the submitted descriptor, kept so completion hooks can
	// rebuild a remainder submission after a partial completion.
	desc Descriptor

	// batch is a batch parent's aggregation state. The record's Children
	// alias its child-record slice, so it returns to the device's pool
	// only together with this completion.
	batch *batchState

	// released marks a completion its owner has handed back; windowed
	// marks one an undelivered coalescing window still holds. A
	// completion is recycled once it is released and out of any window.
	released bool
	windowed bool

	// Timeline instants (virtual time).
	SubmitTime   sim.Time
	DispatchTime sim.Time
	FinishTime   sim.Time
}

// complete records the result and wakes waiters.
func (c *Completion) complete(rec CompletionRecord) {
	e := c.dev.E
	c.rec = rec
	c.done = true
	c.FinishTime = e.Now()
	c.sig.Broadcast(e)
	if c.coal != nil {
		c.coal.observe(c)
	}
	if c.onDone != nil {
		c.onDone(c, c.onDoneTag)
	}
}

// SetOnDone arms the completion hook: fn(c, tag) runs when the record is
// written, after waiters are woken and the interrupt moderation window has
// observed the record. Arming the hook hands the completion to the device:
// the caller must not keep it, nor wait on it, and the device recycles it
// once the hook has run — so fn must not keep c either.
func (c *Completion) SetOnDone(fn func(c *Completion, tag uint64), tag uint64) {
	c.onDone, c.onDoneTag = fn, tag
}

// Release hands a done completion back to its device for reuse by a later
// submission. The caller must hold no reference to it, or to its record's
// Children, afterwards. A completion an undelivered coalescing window still
// holds is recycled when the window delivers. Release panics on a
// completion still in flight and on a second release.
func (c *Completion) Release() {
	if c.released {
		panic("dsa: Completion released twice")
	}
	if !c.done {
		panic("dsa: Release of a Completion still in flight")
	}
	c.released = true
	if !c.windowed {
		c.dev.freeCompletion(c)
	}
}

// Desc returns the descriptor this completion was created for.
func (c *Completion) Desc() *Descriptor { return &c.desc }

// Done reports whether the completion record has been written.
func (c *Completion) Done() bool { return c.done }

// Record returns the completion record; valid once Done reports true.
func (c *Completion) Record() CompletionRecord { return c.rec }

// Wait parks the calling process until the descriptor completes (event
// driven — the UMWAIT-style wait without the core-side accounting, which
// Client.Wait adds).
func (c *Completion) Wait(p *sim.Proc) {
	for !c.done {
		p.Wait(&c.sig)
	}
}

// Latency returns finish − submit; valid once done.
func (c *Completion) Latency() sim.Time { return c.FinishTime - c.SubmitTime }

// QueueTime returns dispatch − submit; valid once done.
func (c *Completion) QueueTime() sim.Time { return c.DispatchTime - c.SubmitTime }
