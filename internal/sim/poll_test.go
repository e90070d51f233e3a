package sim

import (
	"fmt"
	"strings"
	"testing"
)

// pollWorld is one run of the chain equivalence model. Procs run plans of
// links — a sleep, a sleep until an instant, a signal wait, a re-arming
// poll and a signal wait followed by a sleep — either as the
// straight-line Sleep, SleepUntil, Wait and Sleep-loop code a chain
// replaces, or as chains: SleepPoll for a plan that is one poll, Chain
// otherwise. Engine callbacks set and clear the
// poll flags and signal conditions, and broadcast the signals, on the
// same instants the links land on.
type pollWorld struct {
	e     *Engine
	chain bool // run plans as chains; otherwise as straight-line code
	flags []bool
	ready []bool // signal conditions, one per signal
	sigs  []Signal
	live  int // procs still running
	trace []pollEvent
	procs []pollWaiter
	hand  []pollWaiter // per proc, the argument its chain hands off to
	// handoffs counts a chained run's Continue handoffs, and folds its
	// ThenWaitAfter links, each one event fewer than the straight line.
	handoffs int
	folds    int
	stats    pollStats
}

// pollStats counts the corner cases a straight-line run went through, so
// a test can check the model reaches them.
type pollStats struct {
	failedPolls int // poll checks that re-armed
	readyWaits  int // signal waits that found the condition already true
	rewaits     int // signal wake-ups that found it false and waited again
	pastUntils  int // SleepUntil calls for an instant already passed
	waitAfters  int // signal waits followed by a sleep
}

// pollEvent is one traced step: the instant and what ran.
type pollEvent struct {
	at    Time
	label string
}

// linkKind is what one plan link waits for.
type linkKind int

const (
	linkSleep     linkKind = iota // Sleep(d)
	linkUntil                     // SleepUntil(d)
	linkWait                      // wait on signal k until its condition holds
	linkPoll                      // poll the proc's flag every d
	linkWaitAfter                 // Wait on signal k, then Sleep(d)
	nLinkKinds
)

// link is one step of a proc's plan.
type link struct {
	kind linkKind
	d    Time
	k    int
}

// pollWaiter is one proc's chain argument: its plan for the current round
// and the link it is on. A chain reaching link cut (-1: none) hands the
// rest of the plan to next with Continue, and from then on no step may
// get this argument (gone).
type pollWaiter struct {
	w    *pollWorld
	id   int
	plan []link
	i    int
	cut  int
	next *pollWaiter
	gone bool
}

// waiterOf is a chain step's argument, which must not be one the chain
// handed off.
func waiterOf(arg any) *pollWaiter {
	pw := arg.(*pollWaiter)
	if pw.gone {
		panic(fmt.Sprintf("waiter %d: a step got the argument its chain handed off", pw.id))
	}
	return pw
}

// log traces one step at the current instant.
func (w *pollWorld) log(format string, args ...any) {
	w.trace = append(w.trace, pollEvent{w.e.Now(), fmt.Sprintf(format, args...)})
}

// pollCheck is the condition every poll tests: it traces every check, so
// the two runs must interleave checks and callbacks identically.
func pollCheck(arg any) bool {
	pw := arg.(*pollWaiter)
	pw.w.log("check %d", pw.id)
	return pw.w.flags[pw.id]
}

// sigReady is the condition every signal wait tests, traced like
// pollCheck.
func (w *pollWorld) sigReady(k int) bool {
	w.log("sigcheck %d=%v", k, w.ready[k])
	return w.ready[k]
}

// straight runs pw's plan as straight-line process code.
func (w *pollWorld) straight(p *Proc, pw *pollWaiter) {
	for i, l := range pw.plan {
		switch l.kind {
		case linkSleep:
			p.Sleep(l.d)
		case linkUntil:
			if l.d <= p.Now() {
				w.stats.pastUntils++
			}
			p.SleepUntil(l.d)
		case linkWait:
			if w.sigReady(l.k) {
				w.stats.readyWaits++
				break
			}
			for {
				p.Wait(&w.sigs[l.k])
				if w.sigReady(l.k) {
					break
				}
				w.stats.rewaits++
			}
		case linkPoll:
			for {
				p.Sleep(l.d)
				if pollCheck(pw) {
					break
				}
				w.stats.failedPolls++
			}
		case linkWaitAfter:
			w.stats.waitAfters++
			p.Wait(&w.sigs[l.k])
			p.Sleep(l.d)
		}
		w.log("link %d.%d", pw.id, i)
	}
}

// chained runs pw's plan as one chain, or a lone poll as SleepPoll.
func (w *pollWorld) chained(p *Proc, pw *pollWaiter) {
	if len(pw.plan) == 1 && pw.plan[0].kind == linkPoll {
		p.SleepPoll(pw.plan[0].d, pollCheck, pw)
		w.log("link %d.0", pw.id)
		return
	}
	pw.i, pw.gone, pw.next = 0, false, nil
	if pw.cut >= 0 {
		pw.next = &w.hand[pw.id]
		*pw.next = pollWaiter{w: w, id: pw.id, plan: pw.plan, cut: -1}
	}
	p.Chain(linkStart, pw)
}

// linkStart arms the current link, or ends the chain after the last. At
// the cut it hands the rest of the plan to the next argument instead.
func linkStart(p *Proc, arg any) {
	pw := waiterOf(arg)
	if pw.i == pw.cut {
		next := pw.next
		next.i, pw.gone = pw.i, true
		pw.w.handoffs++
		p.Continue(linkStart, next)
		return
	}
	if pw.i == len(pw.plan) {
		return
	}
	l := pw.plan[pw.i]
	switch l.kind {
	case linkSleep:
		p.Then(l.d, linkEnd)
	case linkUntil:
		p.ThenAt(l.d, linkEnd)
	case linkWait:
		linkSignal(p, arg)
	case linkPoll:
		p.Then(l.d, linkPolled)
	case linkWaitAfter:
		pw.w.folds++
		p.ThenWaitAfter(&pw.w.sigs[l.k], l.d, linkEnd)
	}
}

// linkEnd traces the end of the current link and starts the next.
func linkEnd(p *Proc, arg any) {
	pw := waiterOf(arg)
	pw.w.log("link %d.%d", pw.id, pw.i)
	pw.i++
	linkStart(p, arg)
}

// linkSignal checks a signal wait's condition and re-arms on the signal
// while it does not hold.
func linkSignal(p *Proc, arg any) {
	pw := waiterOf(arg)
	k := pw.plan[pw.i].k
	if !pw.w.sigReady(k) {
		p.ThenWait(&pw.w.sigs[k], linkSignal)
		return
	}
	linkEnd(p, arg)
}

// linkPolled is one poll check inside a chain.
func linkPolled(p *Proc, arg any) {
	pw := waiterOf(arg)
	if !pollCheck(pw) {
		p.Then(pw.plan[pw.i].d, linkPolled)
		return
	}
	linkEnd(p, arg)
}

// runPollWorld builds and runs one world from seed. Procs, plans, rounds
// and the competing callbacks all come from the seed. With plans unset
// every plan is a lone poll, the SleepPoll model; otherwise plans mix all
// five links and every third proc stays straight-line even in a chained
// run, so chain steps and plain waiters share signals. A rescue callback
// past the random horizon sets every flag and condition each few ticks
// until the procs finish, so every run terminates.
func runPollWorld(seed uint64, chain, plans bool, nprocs, ncallbacks int) *pollWorld {
	rng := NewRand(seed)
	nsigs := 1 + nprocs/2
	w := &pollWorld{
		e: New(), chain: chain, live: nprocs,
		flags: make([]bool, nprocs), ready: make([]bool, nsigs), sigs: make([]Signal, nsigs),
		procs: make([]pollWaiter, nprocs), hand: make([]pollWaiter, nprocs),
	}
	const horizon = 400
	for id := 0; id < nprocs; id++ {
		w.procs[id] = pollWaiter{w: w, id: id}
		gap := Time(1 + rng.Intn(7))
		rounds := 1 + rng.Intn(4)
		start := Time(rng.Intn(20))
		pre := make([]Time, rounds)
		roundPlans := make([][]link, rounds)
		cuts := make([]int, rounds)
		for r := range pre {
			pre[r] = Time(rng.Intn(3)) * gap
			if !plans {
				roundPlans[r] = []link{{kind: linkPoll, d: gap}}
				cuts[r] = -1
				continue
			}
			roundPlans[r] = make([]link, 1+rng.Intn(4))
			// A chained plan hands off at a random link boundary, its
			// start and end included, or not at all.
			cuts[r] = rng.Intn(len(roundPlans[r])+2) - 1
			for i := range roundPlans[r] {
				l := link{kind: linkKind(rng.Intn(int(nLinkKinds))), d: Time(rng.Intn(8))}
				switch l.kind {
				case linkUntil:
					l.d = Time(rng.Intn(horizon / 2))
				case linkWait:
					l.k = rng.Intn(nsigs)
				case linkWaitAfter:
					// The delay is unique to the proc and longer than
					// any other delay in the world, SleepUntil's
					// included, so nothing else is scheduled for the
					// instant the link lands on while its wake-up is
					// pending: the one reorder the fold may make among
					// events at one instant cannot happen.
					l.k = rng.Intn(nsigs)
					l.d = horizon/2 + Time(id+nprocs*rng.Intn(4))
				case linkPoll:
					l.d = gap
				}
				roundPlans[r][i] = l
			}
		}
		chained := chain && id%3 != 2
		w.e.At(start, func() {
			w.e.Go(fmt.Sprintf("waiter-%d", id), func(p *Proc) {
				pw := &w.procs[id]
				for r := 0; r < rounds; r++ {
					if pre[r] == 0 {
						p.Yield()
					} else {
						p.Sleep(pre[r])
					}
					w.log("wait %d", id)
					pw.plan, pw.cut = roundPlans[r], cuts[r]
					if chained {
						w.chained(p, pw)
					} else {
						w.straight(p, pw)
					}
					w.flags[id] = false
					w.log("woke %d round %d", id, r)
					// Set a neighbour's flag and condition on a later
					// instant the links can land on.
					next := (id + 1) % nprocs
					w.e.After(gap*Time(1+r), func() {
						w.flags[next] = true
						w.ready[next%nsigs] = true
						w.sigs[next%nsigs].Broadcast(w.e)
						w.log("chain set %d", next)
					})
				}
				w.live--
			})
		})
	}
	for c := 0; c < ncallbacks; c++ {
		id := rng.Intn(nprocs)
		at := Time(rng.Intn(horizon))
		set := rng.Intn(3) != 0
		w.e.At(at, func() {
			w.flags[id] = set
			w.log("cb set %d=%v", id, set)
		})
		if !plans {
			continue
		}
		// A signal callback sets, clears or only broadcasts a condition:
		// the last wakes waiters that must re-arm.
		k := rng.Intn(nsigs)
		at = Time(rng.Intn(horizon))
		act := rng.Intn(3)
		w.e.At(at, func() {
			switch act {
			case 0:
				w.ready[k] = true
			case 1:
				w.ready[k] = false
			}
			if act != 1 {
				w.sigs[k].Broadcast(w.e)
			}
			w.log("cb sig %d act %d", k, act)
		})
	}
	var rescue func()
	rescue = func() {
		if w.live == 0 {
			return
		}
		for id := range w.flags {
			w.flags[id] = true
		}
		for k := range w.ready {
			w.ready[k] = true
			w.sigs[k].Broadcast(w.e)
		}
		w.log("rescue")
		w.e.After(5, rescue)
	}
	w.e.At(horizon, rescue)
	w.e.Run()
	return w
}

// checkChainEquivalence runs one seed straight-line and chained, and
// fails unless the traces and final clocks match and the chained run
// scheduled one event fewer per folded wait (ThenWaitAfter). It returns
// the straight-line run.
func checkChainEquivalence(t *testing.T, seed uint64, plans bool, nprocs, ncallbacks int) *pollWorld {
	t.Helper()
	loop := runPollWorld(seed, false, plans, nprocs, ncallbacks)
	chain := runPollWorld(seed, true, plans, nprocs, ncallbacks)
	if loop.e.Now() != chain.e.Now() {
		t.Fatalf("seed %d: final clock %v chained, %v straight-line", seed, chain.e.Now(), loop.e.Now())
	}
	if loop.e.seq != chain.e.seq+uint64(chain.folds) {
		t.Fatalf("seed %d: %d events scheduled chained with %d folded waits, %d straight-line", seed, chain.e.seq, chain.folds, loop.e.seq)
	}
	if chain.e.Resumes() > loop.e.Resumes() {
		t.Fatalf("seed %d: chained run resumed %d times, straight-line %d", seed, chain.e.Resumes(), loop.e.Resumes())
	}
	if len(loop.trace) != len(chain.trace) {
		t.Fatalf("seed %d: trace has %d steps chained, %d straight-line", seed, len(chain.trace), len(loop.trace))
	}
	for i := range loop.trace {
		if loop.trace[i] != chain.trace[i] {
			t.Fatalf("seed %d: step %d is %v chained, %v straight-line", seed, i, chain.trace[i], loop.trace[i])
		}
	}
	return loop
}

// TestSleepPollMatchesSleepLoop checks that SleepPoll is the Sleep loop it
// replaces, event for event: the same checks and callbacks at the same
// instants in the same order, the same final clock, and the same number
// of scheduled events.
func TestSleepPollMatchesSleepLoop(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		checkChainEquivalence(t, seed, false, 1+int(seed%5), int(seed%40))
	}
	// The model must exercise failed checks, or it proves nothing.
	w := runPollWorld(7, true, false, 3, 30)
	if checks, woke := w.count("check"), w.count("woke"); checks <= woke {
		t.Fatalf("%d checks for %d wake-ups: no check ever failed", checks, woke)
	}
}

// TestChainMatchesStraightLine checks that a chain is the straight-line
// Sleep, SleepUntil and Wait code it replaces, event for event, with ties
// at one instant, signal waits that find their condition already true or
// wake to find it false, passed SleepUntil instants and re-arming polls
// all reached, with chain steps and plain waiters on one signal, with
// chains that hand the rest of their plan to a new argument (Continue)
// at a link boundary, and with ThenWaitAfter links that fold a Wait and
// the Sleep after it into one event.
func TestChainMatchesStraightLine(t *testing.T) {
	var seen pollStats
	for seed := uint64(1); seed <= 200; seed++ {
		st := checkChainEquivalence(t, seed, true, 1+int(seed%6), int(seed%48)).stats
		seen.failedPolls += st.failedPolls
		seen.readyWaits += st.readyWaits
		seen.rewaits += st.rewaits
		seen.pastUntils += st.pastUntils
		seen.waitAfters += st.waitAfters
	}
	if seen.failedPolls == 0 || seen.readyWaits == 0 || seen.rewaits == 0 || seen.pastUntils == 0 || seen.waitAfters == 0 {
		t.Fatalf("the model missed a corner case: %+v", seen)
	}
	// A chained run must save switches, or the chains never ran.
	loop, chain := runPollWorld(7, false, true, 4, 30), runPollWorld(7, true, true, 4, 30)
	if chain.e.Resumes() >= loop.e.Resumes() {
		t.Fatalf("chained run resumed %d times, straight-line %d", chain.e.Resumes(), loop.e.Resumes())
	}
	if chain.handoffs == 0 {
		t.Fatal("no chain handed its plan off")
	}
	if chain.folds == 0 {
		t.Fatal("no chain folded a wait and its sleep")
	}
}

// TestThenWaitAfterClearsItsDelay checks that a ThenWaitAfter link's
// delay applies to the one wake-up it was armed for: the next ThenWait
// and Wait of the same process, and a ThenWait of the next process Go
// starts on the same pooled Proc, wake in their Broadcast's instant.
func TestThenWaitAfterClearsItsDelay(t *testing.T) {
	e := New()
	var s Signal
	var woke []Time
	waitAfter := func(p *Proc, _ any) { p.ThenWaitAfter(&s, 7, nil) }
	wait := func(p *Proc, _ any) { p.ThenWait(&s, nil) }
	first := e.Go("first", func(p *Proc) {
		p.Chain(waitAfter, nil)
		woke = append(woke, p.Now())
		p.Chain(wait, nil)
		woke = append(woke, p.Now())
		p.Wait(&s)
		woke = append(woke, p.Now())
	})
	var second *Proc
	e.At(35, func() {
		second = e.Go("second", func(p *Proc) {
			p.Chain(wait, nil)
			woke = append(woke, p.Now())
		})
	})
	for _, at := range []Time{10, 20, 30, 40} {
		e.At(at, func() { s.Broadcast(e) })
	}
	e.Run()
	if want := []Time{17, 20, 30, 40}; fmt.Sprint(woke) != fmt.Sprint(want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	if second != first {
		t.Fatal("the second process did not reuse the first one's pooled Proc")
	}
}

// count reports the traced steps whose label starts with prefix.
func (w *pollWorld) count(prefix string) int {
	n := 0
	for _, ev := range w.trace {
		if strings.HasPrefix(ev.label, prefix) {
			n++
		}
	}
	return n
}

// FuzzSleepPoll is TestChainMatchesStraightLine over fuzzed seeds, proc
// counts and competing callback counts: chains of every link kind,
// ThenWaitAfter's folded wait included, that hand their plan to a new
// argument with Continue at any link boundary, and SleepPoll as the
// chain of a lone poll.
func FuzzSleepPoll(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0))
	f.Add(uint64(42), uint8(3), uint8(20))
	f.Add(uint64(0xDEADBEEF), uint8(6), uint8(60))
	f.Fuzz(func(t *testing.T, seed uint64, procs, callbacks uint8) {
		checkChainEquivalence(t, seed, true, 1+int(procs%8), int(callbacks%64))
	})
}

// countdown is a SleepPoll condition that holds on its n-th check.
func countdown(arg any) bool {
	n := arg.(*int)
	*n--
	return *n <= 0
}

// A polling wait must not allocate per check or per wait (the step
// callback is bound once per Proc and the argument is a pointer), and it
// switches into the process once per wait at most, not once per check.
// The poller is alone on its engine, so every check is the next event and
// runs in place, on the process: the run resumes it once, to start it,
// and schedules only that wake. With every wake scheduled, each wait adds
// one resume, for its last check, and every check is an event.
func TestSleepPollZeroAlloc(t *testing.T) {
	const waits, checks = 64 + 101, 64*3 + 101*4
	run := func(noRunAhead bool) *Engine {
		e := New()
		e.noRunAhead = noRunAhead
		n := new(int)
		var allocs float64
		e.Go("poller", func(p *Proc) {
			for i := 0; i < 64; i++ {
				*n = 3
				p.SleepPoll(1, countdown, n)
			}
			allocs = testing.AllocsPerRun(100, func() {
				*n = 4
				p.SleepPoll(1, countdown, n)
			})
		})
		e.Run()
		if allocs != 0 {
			t.Errorf("run-ahead off %v: SleepPoll allocated %.1f times per wait, want 0", noRunAhead, allocs)
		}
		if got := e.Now(); got != checks {
			t.Errorf("run-ahead off %v: clock %v after the polls, want %v", noRunAhead, got, Time(checks))
		}
		return e
	}
	on, off := run(false), run(true)
	if got := on.Resumes(); got != 1 {
		t.Errorf("%d resumes, want 1", got)
	}
	if got := off.Resumes(); got != 1+waits {
		t.Errorf("%d resumes with every wake scheduled, want %d", got, 1+waits)
	}
	if on.Scheduled() != 1 || on.ranAhead != checks {
		t.Errorf("%d events scheduled and %d checks run in place, want 1 and %d", on.Scheduled(), on.ranAhead, checks)
	}
	if off.Scheduled() != on.Scheduled()+on.ranAhead {
		t.Errorf("%d events scheduled with every wake scheduled, want %d run-ahead plus %d run in place",
			off.Scheduled(), on.Scheduled(), on.ranAhead)
	}
}

// zeroChain is the argument of the chain TestChainZeroAlloc runs: a
// signal, and its broadcast bound once.
type zeroChain struct {
	e    *Engine
	sig  Signal
	bcst func()
}

// The chain: sleep 1, wait for a broadcast 2 later, wait until an instant
// already passed, then sleep until 3 ahead and 1 more.
func zeroSleep(p *Proc, arg any) { p.Then(1, zeroWait) }

func zeroWait(p *Proc, arg any) {
	z := arg.(*zeroChain)
	z.e.After(2, z.bcst)
	p.ThenWait(&z.sig, zeroPast)
}

func zeroPast(p *Proc, arg any) { p.ThenAt(p.Now()-1, zeroUntil) }

func zeroUntil(p *Proc, arg any) { p.ThenAt(p.Now()+3, zeroLast) }

func zeroLast(p *Proc, arg any) { p.Then(1, nil) }

// A chain of every link kind must not allocate per chain (the step
// callback is bound once per Proc, steps are plain functions and the
// argument is a pointer), and it switches into the process once.
func TestChainZeroAlloc(t *testing.T) {
	e := New()
	z := &zeroChain{e: e}
	z.bcst = func() { z.sig.Broadcast(e) }
	var allocs float64
	e.Go("chainer", func(p *Proc) {
		for i := 0; i < 64; i++ {
			p.Chain(zeroSleep, z)
		}
		allocs = testing.AllocsPerRun(100, func() { p.Chain(zeroSleep, z) })
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("Chain allocated %.1f times per chain, want 0", allocs)
	}
	if got, want := e.Now(), Time((64+101)*7); got != want {
		t.Errorf("clock %v after the chains, want %v", got, want)
	}
	if got := e.Resumes(); got != 1+64+101 {
		t.Errorf("%d resumes, want %d", got, 1+64+101)
	}
}
