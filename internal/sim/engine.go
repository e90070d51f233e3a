// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing events in timestamp order.
// Virtual instants and durations are both expressed as time.Duration offsets
// from the start of the simulation, which keeps arithmetic trivial and makes
// log output readable. Two styles of simulated activity are supported:
//
//   - plain callbacks scheduled with At/After, and
//   - cooperative processes (Proc) that read like straight-line code and
//     park themselves on the clock or on Signals (see proc.go).
//
// Execution is fully deterministic: ties in timestamp are broken by a
// monotonically increasing sequence number, and processes run one at a time
// under the engine's control. Each process is a runtime coroutine that the
// event loop switches into when the process's wake event fires; only one
// coroutine runs at any moment, so no model state needs locking. A panic
// inside a process is re-raised on the goroutine that called Run. Finished
// processes are pooled on their engine and reused by later Go calls, and
// Run stops the pooled coroutines once the event queue drains.
//
// A timed wake that would be the next event to run is run ahead, in place:
// when a process's Sleep or SleepUntil, or a chain link armed with Then or
// ThenAt, would schedule a wake that no pending event sorts before, and
// no Stop is pending and the wake is within RunUntil's bound, the engine
// schedules nothing. It moves the clock to the wake's instant and sequence
// number and the caller goes on as the wake, with no heap push or pop and,
// for a process, no coroutine switch. Every instant, sequence number and
// callback order is what scheduling the wake would have given; only
// Scheduled and Resumes, which count the events pushed and the switches
// made, read lower.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual instant, expressed as the duration elapsed since the
// start of the simulation. Durations and instants share this representation.
type Time = time.Duration

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap orders events by (at, seq). It is a hand-rolled binary heap
// rather than container/heap: the interface-based API boxes every pushed
// and popped event into an interface{}, which allocates on each schedule.
// Event scheduling is the innermost loop of the simulator — every Sleep of
// a polling wait loop goes through it — so the heap works on the concrete
// slice and the steady-state cost of At/After is zero allocations once the
// backing array has grown to the live event count.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// up restores the heap property after appending at index i.
func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down restores the heap property after replacing the root.
func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// push appends an event and restores heap order.
func (e *Engine) push(ev event) {
	e.pushed++
	e.events = append(e.events, ev)
	e.events.up(len(e.events) - 1)
}

// pop removes and returns the earliest event. The caller checks emptiness.
func (e *Engine) pop() event {
	ev := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events[n] = event{} // drop the fn reference so the GC can reclaim it
	e.events = e.events[:n]
	e.events.down(0)
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with New.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	cur     uint64  // sequence number of the running event
	pushed  int64   // events scheduled, reserved ones once pushed
	procs   int     // live processes, for leak detection
	idle    []*Proc // finished processes whose coroutines Go reuses
	resumes int64   // coroutine switches into a process
	stopped bool

	// limit is the latest instant the running Run or RunUntil call may
	// reach, ranAhead counts the wakes run in place, and noRunAhead
	// schedules every wake instead (in-package tests set it to compare).
	limit      Time
	ranAhead   int64
	noRunAhead bool
}

// forever is Run's limit: no instant is past it.
const forever = Time(1<<63 - 1)

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at virtual instant t. Scheduling in the past panics:
// it is always a bug in the simulation model.
func (e *Engine) At(t Time, fn func()) {
	e.checkAt(t)
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// checkAt panics if t is before now.
func (e *Engine) checkAt(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
}

// wakeAt is At for a wake the caller can run in place: it reports true,
// scheduling nothing, when runAhead has moved the clock to the wake.
func (e *Engine) wakeAt(t Time, fn func()) bool {
	e.checkAt(t)
	e.seq++
	if e.runAhead(t, e.seq) {
		return true
	}
	e.push(event{at: t, seq: e.seq, fn: fn})
	return false
}

// runAhead moves the clock to a wake at (t, seq) and reports true if the
// wake would be the next event to run: no pending event sorts before it,
// Stop has not been called and t is within the running call's limit. The
// caller then runs the wake in place instead of scheduling it.
func (e *Engine) runAhead(t Time, seq uint64) bool {
	if e.noRunAhead || e.stopped || t > e.limit {
		return false
	}
	if len(e.events) > 0 {
		if h := e.events[0]; h.at < t || h.at == t && h.seq < seq {
			return false
		}
	}
	e.now, e.cur = t, seq
	e.ranAhead++
	return true
}

// Reserve takes the sequence number an event scheduled now would get,
// without scheduling one. An event whose effect may turn out to be
// nothing can reserve its place in the order, and be scheduled with AtSeq
// only if something comes to depend on it; until then Passed tells
// whether it would already have run.
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq
}

// AtSeq schedules fn at instant t under a sequence number from Reserve,
// so it runs where an At at the reserving instant would have. The event
// must not have passed.
func (e *Engine) AtSeq(t Time, seq uint64, fn func()) {
	if e.Passed(t, seq) {
		panic(fmt.Sprintf("sim: scheduling reserved event at %v seq %d behind the running event", t, seq))
	}
	e.push(event{at: t, seq: seq, fn: fn})
}

// Passed reports whether an event at (t, seq) sorts before the running
// event, so it would already have run.
func (e *Engine) Passed(t Time, seq uint64) bool {
	return t < e.now || t == e.now && seq < e.cur
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Resumes counts the engine's coroutine switches into processes. A wake
// run in place makes none.
func (e *Engine) Resumes() int64 { return e.resumes }

// Scheduled counts the events scheduled so far, run or not. A reserved
// sequence number counts only once AtSeq schedules its event, and a wake
// run in place is never scheduled.
func (e *Engine) Scheduled() int64 { return e.pushed }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// step executes the earliest event. It reports false when no events remain.
func (e *Engine) step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now, e.cur = ev.at, ev.seq
	ev.fn()
	return true
}

// Run executes events until none remain, then stops the pooled idle
// coroutines. It panics if processes are still parked when the event queue
// drains — that is a deadlocked model.
func (e *Engine) Run() {
	e.limit = forever
	for e.step() {
		if e.stopped {
			e.stopped = false
			return
		}
	}
	// Every event has run, and so would every reserved one up to now.
	e.cur = e.seq + 1
	e.stopIdle()
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events", e.procs))
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	e.limit = t
	for len(e.events) > 0 && e.events[0].at <= t {
		if !e.step() {
			break
		}
		if e.stopped {
			e.stopped = false
			return
		}
	}
	// Every event at or before t has run, and so would every reserved
	// one there.
	e.cur = e.seq + 1
	if t > e.now {
		e.now = t
	}
}

// Stop makes the current Run/RunUntil call return after the current event
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// GBps converts a byte count moved at rate gigabytesPerSecond into a
// duration. 1 GB/s is exactly 1 byte/ns, so the math stays in nanoseconds.
func GBps(bytes int64, gigabytesPerSecond float64) Time {
	if gigabytesPerSecond <= 0 {
		panic("sim: non-positive bandwidth")
	}
	return Time(float64(bytes) / gigabytesPerSecond)
}

// Rate converts a byte count and a duration into achieved GB/s.
func Rate(bytes int64, d Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / float64(d)
}
