package sim

import "slices"

// Pipe models a serialized bandwidth resource (a link, port, or memory
// channel). Transfers are granted in request order: each reservation starts
// no earlier than the previous one finished, which yields fair FIFO
// bandwidth sharing with O(1) state.
type Pipe struct {
	e        *Engine
	nsPerByt float64 // nanoseconds per byte
	free     Time    // instant the pipe next becomes idle
	busy     Time    // cumulative busy time, for utilization accounting
	moved    int64   // cumulative bytes moved
}

// NewPipe creates a pipe with capacity gbps gigabytes per second.
func NewPipe(e *Engine, gbps float64) *Pipe {
	if gbps <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{e: e, nsPerByt: 1.0 / gbps}
}

// Reserve books a transfer of n bytes beginning no earlier than the current
// time and returns the instant the transfer completes.
func (p *Pipe) Reserve(n int64) Time { return p.ReserveAt(p.e.now, n) }

// ReserveAt books a transfer of n bytes beginning no earlier than instant t
// and returns the completion instant.
func (p *Pipe) ReserveAt(t Time, n int64) Time {
	start := t
	if p.free > start {
		start = p.free
	}
	d := Time(float64(n) * p.nsPerByt)
	p.free = start + d
	p.busy += d
	p.moved += n
	return p.free
}

// Backlog returns how far in the future the pipe is already booked.
func (p *Pipe) Backlog() Time {
	if p.free <= p.e.now {
		return 0
	}
	return p.free - p.e.now
}

// BytesMoved returns the cumulative bytes reserved through the pipe.
func (p *Pipe) BytesMoved() int64 { return p.moved }

// BusyTime returns the cumulative busy duration of the pipe.
func (p *Pipe) BusyTime() Time { return p.busy }

// SetRate changes the pipe's capacity (in GB/s) for future reservations.
func (p *Pipe) SetRate(gbps float64) {
	if gbps <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	p.nsPerByt = 1.0 / gbps
}

// Token is a counting semaphore over virtual time: it tracks when each of a
// fixed pool of slots next becomes free. It models pools such as DMA read
// buffers or in-flight descriptor windows analytically.
type Token struct {
	free []Time // next-free instant per slot
}

// NewToken creates a pool with n slots, all free at time zero.
func NewToken(n int) *Token {
	return &Token{free: make([]Time, n)}
}

// Acquire books the earliest-available slot from instant t until t+hold
// (starting no earlier than the slot frees) and returns the instant the slot
// became available to the caller.
func (tk *Token) Acquire(t Time, hold Time) Time {
	best := 0
	for i, f := range tk.free {
		if f < tk.free[best] {
			best = i
		}
		_ = f
	}
	start := t
	if tk.free[best] > start {
		start = tk.free[best]
	}
	tk.free[best] = start + hold
	return start
}

// Size returns the number of slots in the pool.
func (tk *Token) Size() int { return len(tk.free) }

// FIFO is an unbounded deterministic queue of arbitrary items, used as the
// backing store for work queues and ring buffers in the model. Pop is O(1):
// it advances a head index over the backing array instead of shifting it,
// and Push compacts the live items to the front once the array is full and
// at least half of it is popped slots, so every operation is amortized O(1)
// and a steady push/pop stream reuses one backing array.
type FIFO[T any] struct {
	items []T
	head  int // index of the queue head within items
}

// Push appends v to the tail of the queue.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:]) // drop stale references for the GC
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// Grow makes room for n more pushes without reallocating.
func (q *FIFO[T]) Grow(n int) { q.items = slices.Grow(q.items, n) }

// Pop removes and returns the head of the queue; ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero // the popped slot must not pin its item
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// Peek returns the head without removing it.
func (q *FIFO[T]) Peek() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	return q.items[q.head], true
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }
