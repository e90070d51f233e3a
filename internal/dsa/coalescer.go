package dsa

import (
	"fmt"

	"dsasim/internal/sim"
)

// Coalescer moderates completion interrupts the way production drivers
// program per-queue/per-vector interrupt throttling: finished completion
// records are held until either Count of them have accumulated or Window
// virtual time has passed since the first undelivered record, then one
// interrupt announces the whole batch. N completions in a window cost one
// IntrDeliver + IntrHandler instead of N — the §4.4 delivery latency that
// otherwise dominates small-operation offload (Fig 11's trade-off, paid
// per descriptor on the naive path).
//
// The Coalescer models the software-visible MSI-X vector a client's
// completions are steered to: attach one to a Client (Client.Coal) and
// every completion the client submits is tracked. Only Interrupt-mode
// waits consult it — a polling client reads the completion record the
// instant it is written, and UMWAIT monitors the record's cache line
// directly, so neither is delayed by interrupt moderation.
//
// Sharing one Coalescer across several Clients (as the offload layer does
// per tenant) coalesces across work queues and devices too: the model's
// stand-in for steering every vector of a process to one interrupt thread.
type Coalescer struct {
	e      *sim.Engine
	count  int
	window sim.Time

	// ready holds finished-but-unannounced completions; the backing array
	// is reused across delivery windows so steady-state tracking does not
	// allocate.
	ready []*Completion

	// seq numbers the current accumulation window. armed queues the seq
	// of every window whose timer is pending: timers all run Window after
	// their window opened, so they fire in the order they were armed, and
	// each delivers only if its window was not already delivered by the
	// count trigger. timerFn is k.timer bound once.
	seq     uint64
	armed   sim.FIFO[uint64]
	timerFn func()

	// free pools interrupt records no live completion refers to.
	free []*intrDelivery

	// sig wakes Interrupt-mode waiters parked for the next delivery.
	sig sim.Signal

	deliveries int64
	coalesced  int64
}

// intrDelivery is one fired interrupt: the instant it was raised and
// whether a waiter has already paid the delivery + handler cost. Every
// completion announced by the same interrupt shares one intrDelivery, so
// the cost is charged exactly once however many futures drain from it.
// refs counts the completions it announced that are not yet recycled; the
// last one returns it to the coalescer's pool.
type intrDelivery struct {
	at   sim.Time
	paid bool
	refs int
}

// NewCoalescer builds an interrupt coalescer delivering one interrupt per
// count completions, or per window when fewer accumulate — the timer bound
// is what keeps a tail of fewer-than-count records from waiting forever,
// so count > 1 requires a positive window. tick is the device's moderation
// timer granularity (Timing.IntrCoalesceTick); the window rounds up to a
// whole number of ticks, and zero tick leaves it exact.
func NewCoalescer(e *sim.Engine, count int, window, tick sim.Time) *Coalescer {
	if count < 1 {
		count = 1
	}
	if count > 1 && window <= 0 {
		panic(fmt.Sprintf("dsa: coalescer count %d needs a positive window (the timer bound delivers the tail)", count))
	}
	if tick > 0 && window > 0 {
		if rem := window % tick; rem != 0 {
			window += tick - rem
		}
	}
	k := &Coalescer{e: e, count: count, window: window}
	k.timerFn = k.timer
	return k
}

// Count returns the delivery batch size.
func (k *Coalescer) Count() int { return k.count }

// Window returns the (tick-rounded) delivery time bound.
func (k *Coalescer) Window() sim.Time { return k.window }

// Deliveries returns the number of interrupts fired.
func (k *Coalescer) Deliveries() int64 { return k.deliveries }

// CoalescedRecords returns the completions that shared an interrupt with
// an earlier record instead of costing their own delivery.
func (k *Coalescer) CoalescedRecords() int64 { return k.coalesced }

// Pending returns finished completions whose interrupt has not fired yet.
func (k *Coalescer) Pending() int { return len(k.ready) }

// Track steers a submitted completion's interrupt through this coalescer.
// It must be called before the completion can finish (Client.TrySubmit
// calls it in the same event as the portal write).
func (k *Coalescer) Track(c *Completion) {
	c.coal = k
}

// observe is called by Completion.complete when a tracked record is
// written: the record joins the current window, which is delivered when
// it reaches count records, or by the timer armed when it opened.
func (k *Coalescer) observe(c *Completion) {
	c.windowed = true
	k.ready = append(k.ready, c)
	if len(k.ready) >= k.count {
		k.deliver()
		return
	}
	if len(k.ready) == 1 {
		k.armed.Push(k.seq)
		k.e.After(k.window, k.timerFn)
	}
}

// timer is a window's time bound: it delivers the window it was armed
// for unless the count trigger already did.
func (k *Coalescer) timer() {
	if seq, _ := k.armed.Pop(); seq == k.seq {
		k.deliver()
	}
}

// deliver fires one interrupt for every ready record and wakes waiters.
// A record whose owner already released it leaves the window here, so it
// is recycled now.
func (k *Coalescer) deliver() {
	k.seq++
	k.deliveries++
	k.coalesced += int64(len(k.ready) - 1)
	d := k.newDelivery(len(k.ready))
	for i, c := range k.ready {
		k.ready[i] = nil
		c.windowed = false
		c.intr = d
		if c.released {
			c.dev.freeCompletion(c)
		}
	}
	k.ready = k.ready[:0]
	k.sig.Broadcast(k.e)
}

// newDelivery returns an interrupt record raised now that announces refs
// completions.
func (k *Coalescer) newDelivery(refs int) *intrDelivery {
	var d *intrDelivery
	if n := len(k.free); n > 0 {
		d = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		d = new(intrDelivery)
	}
	*d = intrDelivery{at: k.e.Now(), refs: refs}
	return d
}

// dropDelivery releases one recycled completion's hold on d.
func (k *Coalescer) dropDelivery(d *intrDelivery) {
	if d.refs--; d.refs == 0 {
		k.free = append(k.free, d)
	}
}
