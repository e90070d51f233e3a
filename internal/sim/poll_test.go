package sim

import (
	"fmt"
	"strings"
	"testing"
)

// pollWorld is one run of the SleepPoll equivalence model: procs that
// wait on per-proc flags, either with SleepPoll or with the Sleep loop it
// replaces, while engine callbacks set and clear the flags on the same
// instants the polls land on.
type pollWorld struct {
	e      *Engine
	poll   bool // wait with SleepPoll; otherwise with the Sleep loop
	flags  []bool
	live   int // procs still running
	trace  []pollEvent
	waiter []pollWaiter
}

// pollEvent is one traced step: the instant and what ran.
type pollEvent struct {
	at    Time
	label string
}

// pollWaiter is the SleepPoll argument of one proc's wait.
type pollWaiter struct {
	w  *pollWorld
	id int
}

// log traces one step at the current instant.
func (w *pollWorld) log(format string, args ...any) {
	w.trace = append(w.trace, pollEvent{w.e.Now(), fmt.Sprintf(format, args...)})
}

// pollCheck is the condition both wait styles test: it traces every check,
// so the two runs must interleave checks and callbacks identically.
func pollCheck(arg any) bool {
	pw := arg.(*pollWaiter)
	pw.w.log("check %d", pw.id)
	return pw.w.flags[pw.id]
}

// wait blocks proc id until its flag is set, in the world's wait style.
func (w *pollWorld) wait(p *Proc, id int, gap Time) {
	pw := &w.waiter[id]
	if w.poll {
		p.SleepPoll(gap, pollCheck, pw)
		return
	}
	for {
		p.Sleep(gap)
		if pollCheck(pw) {
			break
		}
	}
}

// runPollWorld builds and runs one world from seed. Procs, gaps, rounds
// and the competing set/clear callbacks all come from the seed; a rescue
// callback past the random horizon sets every flag each few gaps until
// the procs finish, so every run terminates.
func runPollWorld(seed uint64, poll bool, nprocs, ncallbacks int) *pollWorld {
	rng := NewRand(seed)
	w := &pollWorld{e: New(), poll: poll, flags: make([]bool, nprocs), live: nprocs}
	w.waiter = make([]pollWaiter, nprocs)
	const horizon = 400
	for id := 0; id < nprocs; id++ {
		w.waiter[id] = pollWaiter{w: w, id: id}
		gap := Time(1 + rng.Intn(7))
		rounds := 1 + rng.Intn(4)
		start := Time(rng.Intn(20))
		pre := make([]Time, rounds)
		for r := range pre {
			pre[r] = Time(rng.Intn(3)) * gap
		}
		w.e.At(start, func() {
			w.e.Go(fmt.Sprintf("waiter-%d", id), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					if pre[r] == 0 {
						p.Yield()
					} else {
						p.Sleep(pre[r])
					}
					w.log("wait %d", id)
					w.wait(p, id, gap)
					w.flags[id] = false
					w.log("woke %d round %d", id, r)
					// Set a neighbour's flag on a later poll instant.
					next := (id + 1) % nprocs
					w.e.After(gap*Time(1+r), func() {
						w.flags[next] = true
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
	}
	var rescue func()
	rescue = func() {
		if w.live == 0 {
			return
		}
		for id := range w.flags {
			w.flags[id] = true
		}
		w.log("rescue")
		w.e.After(5, rescue)
	}
	w.e.At(horizon, rescue)
	w.e.Run()
	return w
}

// checkSleepPollEquivalence runs one seed in both wait styles and fails
// unless the traces, final clocks and scheduled-event counts match.
func checkSleepPollEquivalence(t *testing.T, seed uint64, nprocs, ncallbacks int) {
	t.Helper()
	loop := runPollWorld(seed, false, nprocs, ncallbacks)
	poll := runPollWorld(seed, true, nprocs, ncallbacks)
	if loop.e.Now() != poll.e.Now() {
		t.Fatalf("seed %d: final clock %v with SleepPoll, %v with the Sleep loop", seed, poll.e.Now(), loop.e.Now())
	}
	if loop.e.seq != poll.e.seq {
		t.Fatalf("seed %d: %d events scheduled with SleepPoll, %d with the Sleep loop", seed, poll.e.seq, loop.e.seq)
	}
	if poll.e.Resumes() > loop.e.Resumes() {
		t.Fatalf("seed %d: SleepPoll resumed %d times, the Sleep loop %d", seed, poll.e.Resumes(), loop.e.Resumes())
	}
	if len(loop.trace) != len(poll.trace) {
		t.Fatalf("seed %d: trace has %d steps with SleepPoll, %d with the Sleep loop", seed, len(poll.trace), len(loop.trace))
	}
	for i := range loop.trace {
		if loop.trace[i] != poll.trace[i] {
			t.Fatalf("seed %d: step %d is %v with SleepPoll, %v with the Sleep loop", seed, i, poll.trace[i], loop.trace[i])
		}
	}
}

// TestSleepPollMatchesSleepLoop checks that SleepPoll is the Sleep loop it
// replaces, event for event: the same checks and callbacks at the same
// instants in the same order, the same final clock, and the same number
// of scheduled events.
func TestSleepPollMatchesSleepLoop(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		checkSleepPollEquivalence(t, seed, 1+int(seed%5), int(seed%40))
	}
	// The model must exercise failed checks, or it proves nothing.
	w := runPollWorld(7, true, 3, 30)
	if checks, woke := w.count("check"), w.count("woke"); checks <= woke {
		t.Fatalf("%d checks for %d wake-ups: no check ever failed", checks, woke)
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

// FuzzSleepPoll is TestSleepPollMatchesSleepLoop over fuzzed seeds, proc
// counts and competing callback counts.
func FuzzSleepPoll(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0))
	f.Add(uint64(42), uint8(3), uint8(20))
	f.Add(uint64(0xDEADBEEF), uint8(6), uint8(60))
	f.Fuzz(func(t *testing.T, seed uint64, procs, callbacks uint8) {
		checkSleepPollEquivalence(t, seed, 1+int(procs%8), int(callbacks%64))
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
// switches into the process once per wait, not once per check.
func TestSleepPollZeroAlloc(t *testing.T) {
	e := New()
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
		t.Errorf("SleepPoll allocated %.1f times per wait, want 0", allocs)
	}
	if got := e.Now(); got != 64*3+101*4 {
		t.Errorf("clock %v after the polls, want %v", got, Time(64*3+101*4))
	}
	// One resume starts the proc; each wait adds one, for its last check.
	if got := e.Resumes(); got != 1+64+101 {
		t.Errorf("%d resumes, want %d", got, 1+64+101)
	}
}
