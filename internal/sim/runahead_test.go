package sim

import (
	"fmt"
	"strings"
	"testing"
)

// aheadWorld is one random program that FuzzRunAhead runs twice, with
// wakes run in place and with every wake scheduled (noRunAhead). Procs
// draw their next action from their own Rand as they go, so both runs
// draw the same actions as long as they run the same events in the same
// order: sleeps, sleeps until an instant, yields, chains of every link
// kind, SleepPoll, Broadcasts, plain callbacks, lazy events reserved and
// scheduled later, Stop, child processes and plain Waits. A driver runs
// the engine in Run and RunUntil calls with random bounds, and traces
// each return.
type aheadWorld struct {
	e     *Engine
	trace []pollEvent
	sigs  []Signal
	flags []bool
	live  int // procs, children included, still running
	cbRng *Rand
	lazy  []lazyEvent
}

// lazyEvent is a place in the order reserved for a later AtSeq.
type lazyEvent struct {
	at  Time
	seq uint64
}

// aheadChain is a chain's argument: the proc, its Rand and the links
// left before the chain ends.
type aheadChain struct {
	w    *aheadWorld
	id   int
	rng  *Rand
	left int
}

const aheadSigs = 3

func (w *aheadWorld) log(format string, args ...any) {
	w.trace = append(w.trace, pollEvent{w.e.Now(), fmt.Sprintf(format, args...)})
}

// side is one random action any process, step or callback may take
// besides its own wait: a plain callback, a Broadcast, a Stop, or a lazy
// event reserved or scheduled. Callbacks schedule more of them while the
// program is young, so the random events thin out over time.
func (w *aheadWorld) side(rng *Rand, who string) {
	switch rng.Intn(8) {
	case 0, 1:
		d := Time(rng.Intn(4))
		w.e.After(d, w.callback)
		w.log("%s after %d", who, d)
	case 2:
		k := rng.Intn(aheadSigs)
		w.sigs[k].Broadcast(w.e)
		w.log("%s broadcast %d", who, k)
	case 3:
		w.e.Stop()
		w.log("%s stop", who)
	case 4:
		at := w.e.Now() + Time(rng.Intn(5))
		w.lazy = append(w.lazy, lazyEvent{at, w.e.Reserve()})
		w.log("%s reserve %d", who, at)
	case 5:
		if len(w.lazy) == 0 {
			return
		}
		i := rng.Intn(len(w.lazy))
		l := w.lazy[i]
		w.lazy = append(w.lazy[:i], w.lazy[i+1:]...)
		if w.e.Passed(l.at, l.seq) {
			w.log("%s lazy %d passed", who, l.at)
			return
		}
		w.e.AtSeq(l.at, l.seq, func() { w.log("lazy %d ran", l.seq) })
		w.log("%s lazy %d scheduled", who, l.at)
	}
}

// callback is a plain engine callback: it flips a poll flag and takes a
// side action while the program is young.
func (w *aheadWorld) callback() {
	id := w.cbRng.Intn(len(w.flags))
	w.flags[id] = !w.flags[id]
	w.log("cb flag %d=%v", id, w.flags[id])
	if w.e.Now() < 40 && w.cbRng.Intn(2) == 0 {
		w.side(w.cbRng, "cb")
	}
}

// aheadCheck is the SleepPoll condition: the proc's flag, traced.
func aheadCheck(arg any) bool {
	c := arg.(*aheadChain)
	c.w.log("check %d=%v", c.id, c.w.flags[c.id])
	return c.w.flags[c.id]
}

// aheadStep is every link of a chain: it traces itself, maybe takes a
// side action, and arms a random next link until none are left, ending
// with nothing armed or with a link that resumes the process.
func aheadStep(p *Proc, arg any) {
	c := arg.(*aheadChain)
	w, rng := c.w, c.rng
	w.log("step %d left %d", c.id, c.left)
	if rng.Intn(3) == 0 {
		w.side(rng, "step")
	}
	if c.left == 0 {
		switch rng.Intn(3) {
		case 1:
			p.Then(Time(rng.Intn(4)), nil)
		case 2:
			p.ThenAt(p.Now()+Time(rng.Intn(5))-2, nil)
		}
		return
	}
	c.left--
	switch rng.Intn(6) {
	case 0, 1:
		p.Then(Time(rng.Intn(4)), aheadStep)
	case 2:
		p.ThenAt(p.Now()+Time(rng.Intn(5))-2, aheadStep)
	case 3:
		p.ThenWait(&w.sigs[rng.Intn(aheadSigs)], aheadStep)
	case 4:
		p.ThenWaitAfter(&w.sigs[rng.Intn(aheadSigs)], Time(rng.Intn(4)), aheadStep)
	case 5:
		next := *c
		p.Continue(aheadStep, &next)
	}
}

// program runs ops random actions on p.
func (w *aheadWorld) program(p *Proc, id int, rng *Rand, ops int, depth int) {
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			p.Sleep(Time(rng.Intn(5)))
		case 2:
			p.SleepUntil(p.Now() + Time(rng.Intn(6)) - 2)
		case 3:
			p.Yield()
		case 4, 5:
			p.Chain(aheadStep, &aheadChain{w: w, id: id, rng: rng, left: rng.Intn(5)})
		case 6:
			p.SleepPoll(Time(1+rng.Intn(3)), aheadCheck, &aheadChain{w: w, id: id})
		case 7:
			p.Wait(&w.sigs[rng.Intn(aheadSigs)])
		case 8:
			if depth < 2 {
				w.live++
				child := NewRand(rng.Uint64())
				w.e.Go("child", func(c *Proc) {
					w.program(c, id, child, 1+child.Intn(4), depth+1)
					w.live--
				})
			}
		case 9:
			w.side(rng, "proc")
		}
		w.log("proc %d op %d", id, i)
	}
}

// runAheadWorld builds and runs one program from seed, with or without
// run-ahead. A rescue callback from instant 60 on sets every flag and
// broadcasts every signal each few ticks until every proc has finished,
// so every run ends.
func runAheadWorld(seed uint64, nprocs int, noRunAhead bool) *aheadWorld {
	rng := NewRand(seed)
	w := &aheadWorld{e: New(), sigs: make([]Signal, aheadSigs), flags: make([]bool, nprocs),
		cbRng: NewRand(rng.Uint64()), live: nprocs}
	w.e.noRunAhead = noRunAhead
	for id := 0; id < nprocs; id++ {
		prng := NewRand(rng.Uint64())
		ops := 1 + rng.Intn(12)
		w.e.At(Time(rng.Intn(6)), func() {
			w.e.Go("proc", func(p *Proc) {
				w.program(p, id, prng, ops, 0)
				w.live--
			})
		})
	}
	for c := rng.Intn(8); c > 0; c-- {
		w.e.At(Time(rng.Intn(30)), w.callback)
	}
	var rescue func()
	rescue = func() {
		if w.live == 0 {
			return
		}
		for id := range w.flags {
			w.flags[id] = true
		}
		for k := range w.sigs {
			w.sigs[k].Broadcast(w.e)
		}
		w.log("rescue")
		w.e.After(3, rescue)
	}
	w.e.At(60, rescue)
	for w.e.Pending() > 0 || w.live > 0 {
		if rng.Intn(3) == 0 {
			w.e.RunUntil(w.e.Now() + Time(rng.Intn(12)))
			w.log("until")
		} else {
			w.e.Run()
			w.log("run")
		}
	}
	w.e.Run() // retire the pooled coroutines
	return w
}

// checkRunAhead runs one program with and without run-ahead and fails
// unless both trace the same callbacks at the same instants in the same
// order, end on the same clock and sequence number, and the run without
// run-ahead pushed one event more per wake the other ran in place. It
// returns the run-ahead run.
func checkRunAhead(t *testing.T, seed uint64, nprocs int) *aheadWorld {
	t.Helper()
	on, off := runAheadWorld(seed, nprocs, false), runAheadWorld(seed, nprocs, true)
	if off.e.ranAhead != 0 {
		t.Fatalf("seed %d: %d wakes ran in place with run-ahead off", seed, off.e.ranAhead)
	}
	for i := 0; i < len(on.trace) && i < len(off.trace); i++ {
		if on.trace[i] != off.trace[i] {
			t.Fatalf("seed %d: step %d is %v run ahead, %v scheduled", seed, i, on.trace[i], off.trace[i])
		}
	}
	if len(on.trace) != len(off.trace) {
		t.Fatalf("seed %d: trace has %d steps run ahead, %d scheduled", seed, len(on.trace), len(off.trace))
	}
	if on.e.Now() != off.e.Now() || on.e.seq != off.e.seq {
		t.Fatalf("seed %d: clock %v seq %d run ahead, %v seq %d scheduled", seed, on.e.Now(), on.e.seq, off.e.Now(), off.e.seq)
	}
	if off.e.Scheduled() != on.e.Scheduled()+on.e.ranAhead {
		t.Fatalf("seed %d: %d events scheduled without run-ahead, %d with it plus %d run in place",
			seed, off.e.Scheduled(), on.e.Scheduled(), on.e.ranAhead)
	}
	if on.e.Resumes() > off.e.Resumes() {
		t.Fatalf("seed %d: %d resumes run ahead, %d scheduled", seed, on.e.Resumes(), off.e.Resumes())
	}
	return on
}

// TestRunAheadMatchesScheduled checks over fixed seeds that running a
// wake in place is exact: the same trace, clock and sequence numbers as
// scheduling every wake. The programs must reach Stop, RunUntil bounds,
// lazy events and wakes run in place, or they prove nothing.
func TestRunAheadMatchesScheduled(t *testing.T) {
	var ahead int64
	var stops, untils, lazies int
	for seed := uint64(1); seed <= 300; seed++ {
		w := checkRunAhead(t, seed, 1+int(seed%5))
		ahead += w.e.ranAhead
		for _, ev := range w.trace {
			switch {
			case strings.HasSuffix(ev.label, " stop"):
				stops++
			case ev.label == "until":
				untils++
			case strings.HasPrefix(ev.label, "lazy "):
				lazies++
			}
		}
	}
	if ahead == 0 || stops == 0 || untils == 0 || lazies == 0 {
		t.Fatalf("the programs missed a case: %d wakes run in place, %d stops, %d RunUntil returns, %d lazy events run",
			ahead, stops, untils, lazies)
	}
}

// FuzzRunAhead is TestRunAheadMatchesScheduled over fuzzed seeds and
// proc counts.
func FuzzRunAhead(f *testing.F) {
	f.Add(uint64(1), uint8(1))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(0xDEADBEEF), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, procs uint8) {
		checkRunAhead(t, seed, 1+int(procs%8))
	})
}

// Then, ThenAt and ThenWait arm a link of a running chain; outside one
// they panic instead of leaving a link nothing will run.
func TestThenOutsideChainPanics(t *testing.T) {
	for name, arm := range map[string]func(p *Proc){
		"Then":     func(p *Proc) { p.Then(1, nil) },
		"ThenAt":   func(p *Proc) { p.ThenAt(p.Now()+1, nil) },
		"ThenWait": func(p *Proc) { p.ThenWait(new(Signal), nil) },
	} {
		e := New()
		e.Go("stray", arm)
		pp, ok := runPanic(e).(*ProcPanic)
		if !ok || !strings.Contains(fmt.Sprint(pp.Value), "outside a chain") {
			t.Errorf("%s outside a chain: Run panicked with %v, want an outside-a-chain panic", name, pp)
		}
	}
}
