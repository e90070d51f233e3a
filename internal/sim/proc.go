package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a cooperative simulated process: straight-line code that calls
// Sleep, SleepUntil, SleepPoll, Yield or Wait to give control back to the
// engine and resumes when its wake condition fires.
//
// Each Proc runs on a runtime coroutine (iter.Pull). Waking a process is a
// direct coroutine switch from the engine's event loop, and parking is the
// switch back, so exactly one coroutine — the event loop or a single
// process — runs at any moment. Models built from Procs are therefore
// deterministic and data-race free without locking.
//
// A panic inside a process unwinds that process and is re-raised, as a
// *ProcPanic, by the Run or RunUntil call that woke it, on the caller's
// goroutine, where recover can catch it; runtime.Goexit (t.Fatal)
// propagates the same way.
//
// Procs are pooled per engine. When a process function returns, its Proc
// and coroutine go on the engine's free list and the next Go reuses them,
// so a short-lived process costs no allocation beyond the caller's
// closure. A *Proc is valid only until its function returns. Run stops the
// idle coroutines once the event queue drains.
type Proc struct {
	e    *Engine
	name string
	fn   func(p *Proc)
	done bool // fn has returned and the Proc is idle on the free list

	// next switches into the coroutine until it parks again; yield, called
	// on the coroutine, switches back and reports false once stop has
	// retired the coroutine.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// wake and step are p.resume and p.pollStep bound once per pooled
	// Proc: a method value allocates a closure per use, and every wake-up
	// and poll check schedules one.
	wake, step func()

	// The parked SleepPoll call's gap, condition and argument.
	pollGap  Time
	pollCond func(arg any) bool
	pollArg  any
}

// Go starts fn as a simulated process at the current virtual time, on an
// idle pooled Proc when there is one. The name appears in panics only.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.idle); n > 0 {
		p = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		p = &Proc{e: e}
		p.wake, p.step = p.resume, p.pollStep
		p.next, p.stop = iter.Pull(p.loop)
	}
	p.name, p.fn, p.done = name, fn, false
	e.procs++
	e.After(0, p.wake)
	return p
}

// loop is the coroutine body. It runs one process function per Go, then
// puts the Proc on the free list and parks until a later Go wakes it with a
// new function or stopIdle retires it.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.run()
		p.fn = nil
		p.done = true
		p.e.procs--
		p.e.idle = append(p.e.idle, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run calls the process function, wrapping a panic in a ProcPanic.
func (p *Proc) run() {
	defer func() {
		if v := recover(); v != nil {
			panic(&ProcPanic{Proc: p.name, Value: v, Stack: debug.Stack()})
		}
	}()
	p.fn(p)
}

// ProcPanic is the value Run re-raises when a process panics. The
// process's stack has unwound by the time Run re-raises, so the stack
// captured at the panic is the one that locates the fault.
type ProcPanic struct {
	Proc  string // process name given to Go
	Value any    // the value the process panicked with
	Stack []byte // the process's stack at the panic
}

// Error reports the process, its panic value and the stack at the panic.
func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", pp.Proc, pp.Value, pp.Stack)
}

// resume switches from the engine to the process and returns when the
// process parks again or finishes.
func (p *Proc) resume() {
	if p.done {
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
	p.e.resumes++
	p.next()
}

// park switches from the process back to the engine and returns on the
// next resume.
func (p *Proc) park() { p.yield(struct{}{}) }

// stopIdle retires the coroutines of every pooled Proc.
func (e *Engine) stopIdle() {
	for i, p := range e.idle {
		p.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d Time) {
	p.e.After(d, p.wake)
	p.park()
}

// SleepUntil suspends the process until virtual instant t (no-op if t has
// passed).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.e.now {
		return
	}
	p.e.At(t, p.wake)
	p.park()
}

// Yield reschedules the process at the current instant, letting other events
// with the same timestamp run first.
func (p *Proc) Yield() {
	p.e.After(0, p.wake)
	p.park()
}

// SleepPoll suspends the process until cond(arg) holds, checking it after
// every gap of virtual time. It schedules the same events as the loop
// `for { p.Sleep(gap); if cond(arg) { break } }`, but each check runs as a
// callback in its wake event, so only the check that holds switches into
// the process. cond runs on the engine: a panic in it is no ProcPanic.
func (p *Proc) SleepPoll(gap Time, cond func(arg any) bool, arg any) {
	p.pollGap, p.pollCond, p.pollArg = gap, cond, arg
	p.e.After(gap, p.step)
	p.park()
}

// pollStep is one SleepPoll check: resume once cond holds, else re-arm.
func (p *Proc) pollStep() {
	if !p.pollCond(p.pollArg) {
		p.e.After(p.pollGap, p.step)
		return
	}
	p.pollCond, p.pollArg = nil, nil
	p.resume()
}

// Wait parks the process until s is signalled.
func (p *Proc) Wait(s *Signal) {
	if s.first == nil {
		s.first = p
	} else {
		s.more = append(s.more, p)
	}
	p.park()
}

// Signal is a broadcast wake-up point for processes, akin to a condition
// variable. The zero value is ready to use. The first waiter is held
// inline, so a signal that is only ever waited on by one process at a time
// (a completion, a pipeline run) never allocates a waiter list.
type Signal struct {
	first *Proc
	more  []*Proc // waiters after the first, in wait order
}

// Broadcast wakes every process currently waiting on s. Wake-ups are
// scheduled at the current instant in wait order. A woken process runs
// only when its wake event fires, so nothing joins s during the loop and
// the waiter slice is cleared and reused by the next round of waits.
func (s *Signal) Broadcast(e *Engine) {
	if s.first == nil {
		return
	}
	e.After(0, s.first.wake)
	s.first = nil
	for i, p := range s.more {
		e.After(0, p.wake)
		s.more[i] = nil
	}
	s.more = s.more[:0]
}

// Waiters reports how many processes are parked on s.
func (s *Signal) Waiters() int {
	if s.first == nil {
		return 0
	}
	return 1 + len(s.more)
}
