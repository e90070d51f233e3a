package dsa

import "dsasim/internal/sim"

// SubmitRing is a bounded FIFO of prepared descriptors feeding one work
// queue's ENQCMD path: submitters push, one drain pops in order and hands
// each entry to the WQ. The simulation runs on one goroutine, so the ring
// is a plain queue; the slot-publish CAS a hardware-facing ring would pay
// is priced in virtual time by Timing.RingPush. Entries hold descriptors
// by value and the backing store is sized up front, so the steady-state
// push/pop path allocates nothing.
type SubmitRing struct {
	q   sim.FIFO[RingEntry]
	cap int
}

// RingEntry is one queued submission: the descriptor by value and an opaque
// tag the producer round-trips to the completion path (the submission
// plane stamps the submit instant so completion latency can be attributed
// without a per-operation closure).
type RingEntry struct {
	D   Descriptor
	Tag uint64
}

// NewSubmitRing builds a ring with at least the given capacity, rounded up
// to a power of two (minimum 2), the slot count of a masked ring.
func NewSubmitRing(capacity int) *SubmitRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &SubmitRing{cap: n}
	// A FIFO compacts only once half its backing array is popped slots,
	// so twice the capacity keeps a bounded stream on one array.
	r.q.Grow(2 * n)
	return r
}

// Cap returns the ring capacity.
func (r *SubmitRing) Cap() int { return r.cap }

// Len returns the entries currently queued.
func (r *SubmitRing) Len() int { return r.q.Len() }

// TryPush enqueues one descriptor, returning false when the ring is full.
func (r *SubmitRing) TryPush(d Descriptor, tag uint64) bool {
	if r.q.Len() >= r.cap {
		return false
	}
	r.q.Push(RingEntry{D: d, Tag: tag})
	return true
}

// Pop dequeues the oldest entry; ok is false when the ring is empty.
func (r *SubmitRing) Pop() (RingEntry, bool) { return r.q.Pop() }
