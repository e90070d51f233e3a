package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a cooperative simulated process: straight-line code that calls
// Sleep, SleepUntil, SleepPoll, Chain, Yield or Wait to give control back
// to the engine and resumes when its wake condition fires.
//
// Each Proc runs on a runtime coroutine (iter.Pull). Waking a process is a
// direct coroutine switch from the engine's event loop, and parking is the
// switch back, so exactly one coroutine — the event loop or a single
// process — runs at any moment. A timed wake that would be the next event
// needs neither: the process runs on in place (see the package doc). Models built from Procs are therefore
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

	// wake and step are p.resume and p.runStep bound once per pooled
	// Proc: a method value allocates a closure per use, and every wake-up
	// and chain step schedules one.
	wake, step func()

	// The parked chain's armed step (nil when the armed link resumes the
	// process) and argument, whether the running step armed a link, and
	// whether a chain is running at all.
	stepFn   Step
	stepArg  any
	armed    bool
	chaining bool

	// A timed link's instant and reserved sequence number, until the
	// chain driver runs it in place or schedules it; linkSeq is 0 when
	// no timed link is pending.
	linkAt  Time
	linkSeq uint64

	// sigDelay is how long after the waking Broadcast the armed link
	// runs (ThenWaitAfter); Broadcast clears it.
	sigDelay Time

	// The parked SleepPoll call's gap and condition.
	pollGap  Time
	pollCond func(arg any) bool
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
		p.wake, p.step = p.resume, p.runStep
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

// Sleep suspends the process for virtual duration d. A wake that would
// be the next event runs in place, without parking.
func (p *Proc) Sleep(d Time) {
	if !p.e.wakeAt(p.e.now+d, p.wake) {
		p.park()
	}
}

// SleepUntil suspends the process until virtual instant t (no-op if t has
// passed).
func (p *Proc) SleepUntil(t Time) {
	if t > p.e.now {
		p.Sleep(t - p.e.now)
	}
}

// Yield reschedules the process at the current instant, letting other events
// with the same timestamp run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Step is one link of a chain (see Chain). It runs while its process is
// parked and ends the chain unless it arms the next link with Then,
// ThenAt or ThenWait.
type Step func(p *Proc, arg any)

// Chain runs a chain of steps for the process, which stays parked until
// the chain ends: first(p, arg) runs at once, on the process, and each
// later step runs in the wake of the link that armed it. The process is
// resumed at most once, in the wake whose step arms nothing; when every
// link ran in place, Chain returns without a switch.
//
// Then, ThenAt and ThenWait wake at the same instant and sequence number,
// from the same point, as the Sleep, SleepUntil and Wait they stand for,
// so a chain replays the straight-line code it replaces wake for wake,
// with one coroutine switch at most instead of one per link. A timed
// link that would be the next event runs in place, as Sleep's wake does,
// and is not scheduled. ThenWaitAfter folds a Wait and the Sleep after it
// into one event. Every step gets arg: chain state lives there or on the
// caller, never in a per-call closure. A step run in place from Chain
// runs on the process; one run by a scheduled wake, and every step after
// it, runs on the engine, so a panic there is no ProcPanic.
func (p *Proc) Chain(first Step, arg any) {
	p.stepArg, p.chaining = arg, true
	first(p, arg)
	if !p.drive() {
		p.park()
		p.armed = false
	}
	p.stepArg, p.chaining = nil, false
}

// drive runs the chain on from the step that just returned. While the
// step armed a timed link that would be the next event, the link runs in
// place; a timed link that would not is scheduled at the place Then
// reserved for it, and a signal link is left to Broadcast. It reports
// whether the chain ended.
func (p *Proc) drive() bool {
	for p.armed {
		if p.linkSeq == 0 {
			return false
		}
		t, seq, next := p.linkAt, p.linkSeq, p.stepFn
		p.linkSeq = 0
		if !p.e.runAhead(t, seq) {
			fn := p.step
			if next == nil {
				fn = p.wake
			}
			p.e.AtSeq(t, seq, fn)
			return false
		}
		p.stepFn, p.armed = nil, false
		if next == nil {
			return true
		}
		next(p, p.stepArg)
	}
	return true
}

// Continue hands the running chain a new step and argument: first(p,
// arg) runs at once, in the current link's event, and every later step
// gets arg, as if the chain had been started with Chain(first, arg). A
// step calls it to start another chain's work without resuming the
// process in between.
func (p *Proc) Continue(first Step, arg any) {
	p.stepArg = arg
	first(p, arg)
}

// Then arms the chain's next link: next runs after virtual duration d, as
// Sleep(d) would wake. A nil next resumes the process instead. The link
// takes its sequence number now and is scheduled, or run in place, once
// the step returns, so it keeps the place Sleep(d) would have given it.
// Then outside a running chain panics.
func (p *Proc) Then(d Time, next Step) {
	t := p.e.now + d
	p.e.checkAt(t)
	p.arm(next)
	p.linkAt, p.linkSeq = t, p.e.Reserve()
}

// arm marks next as the running step's armed link.
func (p *Proc) arm(next Step) {
	if !p.chaining {
		panic(fmt.Sprintf("sim: process %q armed a link outside a chain", p.name))
	}
	p.armed = true
	p.stepFn = next
}

// ThenAt is Then at virtual instant t. Like SleepUntil it does not wait
// for an instant that has passed: next runs at once, and a nil next ends
// the chain in the current event.
func (p *Proc) ThenAt(t Time, next Step) {
	if t > p.e.now {
		p.Then(t-p.e.now, next)
		return
	}
	if next != nil {
		next(p, p.stepArg)
	}
}

// ThenWait arms the chain's next link on a signal: next runs in the wake
// event of s's next Broadcast, as Wait(s) would wake. A nil next resumes
// the process instead.
func (p *Proc) ThenWait(s *Signal, next Step) {
	p.arm(next)
	s.add(p)
}

// ThenWaitAfter is ThenWait with next run d after the Broadcast that
// wakes it, at the instant `Wait(s); Sleep(d)` would wake. The link is one
// event, scheduled by the Broadcast, instead of a wake-up that schedules
// the sleep, so among events at that instant it can run ahead of ones
// scheduled between the Broadcast and the wake-up it folds away.
func (p *Proc) ThenWaitAfter(s *Signal, d Time, next Step) {
	p.ThenWait(s, next)
	p.sigDelay = d
}

// runStep runs the armed step in its wake event, drives the chain on, and
// resumes the process when the chain ends.
func (p *Proc) runStep() {
	fn := p.stepFn
	p.stepFn, p.armed = nil, false
	fn(p, p.stepArg)
	if p.drive() {
		p.resume()
	}
}

// signalled schedules what a Broadcast wakes in waiter p: its chain's
// armed step, or its wake-up, sigDelay from now.
func (p *Proc) signalled(e *Engine) {
	d := p.sigDelay
	p.sigDelay = 0
	if p.stepFn != nil {
		e.After(d, p.step)
		return
	}
	e.After(d, p.wake)
}

// SleepPoll suspends the process until cond(arg) holds, checking it after
// every gap of virtual time. It is the chain of the loop
// `for { p.Sleep(gap); if cond(arg) { break } }`: each check runs in its
// wake, so only the check that holds switches into the process, and not
// even that one when every check ran in place. cond runs on the engine
// once a check was scheduled: a panic in it need not be a ProcPanic.
func (p *Proc) SleepPoll(gap Time, cond func(arg any) bool, arg any) {
	p.pollGap, p.pollCond = gap, cond
	p.Chain(pollArm, arg)
	p.pollCond = nil
}

// pollArm is SleepPoll's first step: the first gap.
func pollArm(p *Proc, _ any) { p.Then(p.pollGap, pollStep) }

// pollStep is one SleepPoll check: end the chain once cond holds, else
// wait another gap.
func pollStep(p *Proc, arg any) {
	if !p.pollCond(arg) {
		p.Then(p.pollGap, pollStep)
	}
}

// Wait parks the process until s is signalled.
func (p *Proc) Wait(s *Signal) {
	s.add(p)
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

// add queues p as a waiter.
func (s *Signal) add(p *Proc) {
	if s.first == nil {
		s.first = p
	} else {
		s.more = append(s.more, p)
	}
}

// Broadcast wakes every process currently waiting on s. Wake-ups — or,
// for a parked chain, its armed steps — are scheduled in wait order at
// the current instant, or a ThenWaitAfter link's delay later. A woken
// process runs only when its wake event fires, so nothing joins s during
// the loop and the waiter slice is cleared and reused by the next round
// of waits.
func (s *Signal) Broadcast(e *Engine) {
	if s.first == nil {
		return
	}
	s.first.signalled(e)
	s.first = nil
	for i, p := range s.more {
		p.signalled(e)
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
