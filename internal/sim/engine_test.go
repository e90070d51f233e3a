package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := New()
	var order []int
	e.At(30*time.Nanosecond, func() { order = append(order, 3) })
	e.At(10*time.Nanosecond, func() { order = append(order, 1) })
	e.At(20*time.Nanosecond, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30*time.Nanosecond {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreaksBySequence(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*time.Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

// A reserved sequence number keeps its event's place in the order: an
// event scheduled later with AtSeq runs before the events scheduled after
// the reservation for the same instant, and after those scheduled before
// it. Passed tells whether a reserved event would already have run, and
// once Run drains, every reserved event up to the final instant has. An
// unscheduled reservation is not counted as a scheduled event.
func TestReservedEventKeepsItsPlace(t *testing.T) {
	e := New()
	var order []string
	var r, late, last uint64
	e.At(10, func() {
		e.At(20, func() { order = append(order, "before") })
		r = e.Reserve()
		e.At(20, func() {
			order = append(order, "after")
			if !e.Passed(20, r) {
				t.Error("a reserved event that ran is not passed")
			}
			last, late = e.Reserve(), e.Reserve()
			if e.Passed(20, last) {
				t.Error("a reservation at the running instant, after the running event, is passed")
			}
		})
		if e.Passed(20, r) || e.Passed(10, r) {
			t.Error("a reservation at or after the running event is passed")
		}
	})
	e.At(15, func() {
		e.AtSeq(20, r, func() { order = append(order, "reserved") })
	})
	e.Run()
	if got := fmt.Sprint(order); got != "[before reserved after]" {
		t.Errorf("order %s, want [before reserved after]", got)
	}
	if !e.Passed(20, last) || e.Passed(21, late) {
		t.Error("after Run, a reservation at the final instant must be passed and a later one not")
	}
	if got := e.Scheduled(); got != 5 {
		t.Errorf("%d events scheduled, want 5 (three reservations, one pushed)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("scheduling a passed reservation did not panic")
		}
	}()
	e.AtSeq(20, last, func() {})
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	hits := 0
	e.After(time.Microsecond, func() {
		hits++
		e.After(time.Microsecond, func() { hits++ })
	})
	e.Run()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if e.Now() != 2*time.Microsecond {
		t.Fatalf("Now = %v, want 2µs", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.After(10*time.Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*time.Nanosecond, func() {})
	})
	e.Run()
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := New()
	ran := false
	e.At(100*time.Nanosecond, func() { ran = true })
	e.RunUntil(50 * time.Nanosecond)
	if ran {
		t.Fatal("event after boundary ran")
	}
	if e.Now() != 50*time.Nanosecond {
		t.Fatalf("Now = %v, want 50ns", e.Now())
	}
	e.RunUntil(100 * time.Nanosecond)
	if !ran {
		t.Fatal("event at boundary did not run")
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i)*time.Nanosecond, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count after Stop = %d, want 2", count)
	}
	e.Run()
	if count != 5 {
		t.Fatalf("count after resume = %d, want 5", count)
	}
}

func TestGBpsRoundTrip(t *testing.T) {
	// 30 GB/s moving 3 MB should take 100 µs.
	d := GBps(3_000_000, 30)
	if d != 100*time.Microsecond {
		t.Fatalf("GBps = %v, want 100µs", d)
	}
	if got := Rate(3_000_000, d); got < 29.99 || got > 30.01 {
		t.Fatalf("Rate = %v, want 30", got)
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := New()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != 42*time.Microsecond {
		t.Fatalf("woke at %v, want 42µs", woke)
	}
}

func TestProcInterleavingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := New()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(10 * time.Nanosecond)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, got)
			}
		}
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	e := New()
	var s Signal
	woke := 0
	for i := 0; i < 4; i++ {
		e.Go("waiter", func(p *Proc) {
			p.Wait(&s)
			woke++
		})
	}
	e.Go("signaller", func(p *Proc) {
		p.Sleep(time.Microsecond)
		if s.Waiters() != 4 {
			t.Errorf("Waiters = %d, want 4", s.Waiters())
		}
		s.Broadcast(e)
	})
	e.Run()
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
}

// A signal waited on by one process at a time — a fresh completion, a
// pipeline run — holds that waiter inline and allocates nothing, and
// later waiters still wake in wait order.
func TestSignalSingleWaiterZeroAlloc(t *testing.T) {
	e := New()
	var s Signal
	bcast := func() { s.Broadcast(e) }
	var allocs float64
	e.Go("waiter", func(p *Proc) {
		e.After(0, bcast)
		p.Wait(&s) // warm the event heap and the pooled wake path
		allocs = testing.AllocsPerRun(100, func() {
			s = Signal{} // a fresh signal, as each new completion has
			e.After(0, bcast)
			p.Wait(&s)
		})
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("a fresh single-waiter Signal allocated %.1f times per wait, want 0", allocs)
	}

	var order []int
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			p.Wait(&s)
			order = append(order, i)
		})
	}
	e.Go("signaller", func(p *Proc) {
		p.Yield()
		if s.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", s.Waiters())
		}
		s.Broadcast(e)
	})
	e.Run()
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("wake order = %v, want [0 1 2]", order)
	}
	if s.Waiters() != 0 {
		t.Fatalf("Waiters = %d after Broadcast, want 0", s.Waiters())
	}
}

func TestProcSleepUntilPastIsNoop(t *testing.T) {
	e := New()
	e.Go("p", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		p.SleepUntil(5 * time.Nanosecond) // already past
		if p.Now() != 10*time.Nanosecond {
			t.Errorf("Now = %v, want 10ns", p.Now())
		}
	})
	e.Run()
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("deadlocked process did not panic the engine")
		}
	}()
	e := New()
	var s Signal
	e.Go("stuck", func(p *Proc) { p.Wait(&s) })
	e.Run()
}

func TestPipeSerializesTransfers(t *testing.T) {
	e := New()
	p := NewPipe(e, 1) // 1 GB/s = 1 byte per ns
	d1 := p.Reserve(100)
	d2 := p.Reserve(50)
	if d1 != 100*time.Nanosecond {
		t.Fatalf("first reservation done at %v, want 100ns", d1)
	}
	if d2 != 150*time.Nanosecond {
		t.Fatalf("second reservation done at %v, want 150ns", d2)
	}
	if p.Backlog() != 150*time.Nanosecond {
		t.Fatalf("Backlog = %v, want 150ns", p.Backlog())
	}
	if p.BytesMoved() != 150 {
		t.Fatalf("BytesMoved = %d, want 150", p.BytesMoved())
	}
}

func TestPipeIdleGapDoesNotAccumulate(t *testing.T) {
	e := New()
	p := NewPipe(e, 2)     // 2 bytes per ns
	done := p.Reserve(100) // 50ns
	e.At(done+100*time.Nanosecond, func() {
		// Pipe has been idle for 100ns; next transfer starts now.
		if got := p.Reserve(100); got != e.Now()+50*time.Nanosecond {
			t.Errorf("post-idle reservation done at %v, want %v", got, e.Now()+50*time.Nanosecond)
		}
	})
	e.Run()
}

func TestTokenPoolParallelism(t *testing.T) {
	tk := NewToken(2)
	// Three holds of 100ns each from t=0: first two run in parallel,
	// third waits for a slot.
	s1 := tk.Acquire(0, 100)
	s2 := tk.Acquire(0, 100)
	s3 := tk.Acquire(0, 100)
	if s1 != 0 || s2 != 0 {
		t.Fatalf("first two acquisitions start at %v, %v; want 0,0", s1, s2)
	}
	if s3 != 100 {
		t.Fatalf("third acquisition starts at %v, want 100", s3)
	}
}

func TestFIFO(t *testing.T) {
	var q FIFO[int]
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	if v, _ := q.Peek(); v != 0 {
		t.Fatalf("Peek = %d, want 0", v)
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d,%v", i, v, ok)
		}
	}
}

// Property: over any interleaving of pushes and pops, the head-indexed
// FIFO behaves exactly like a plain slice queue — same pops, same Len and
// Peek — and a popped slot never pins its item.
func TestFIFOMatchesSliceQuick(t *testing.T) {
	f := func(ops []byte) bool {
		var q FIFO[*int]
		var ref []*int
		next := 0
		for _, op := range ops {
			if op%3 != 0 { // push twice as often as pop, so queues grow
				v := next
				next++
				q.Push(&v)
				ref = append(ref, &v)
			} else {
				got, ok := q.Pop()
				if ok != (len(ref) > 0) {
					return false
				}
				if ok {
					if got != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			}
			if q.Len() != len(ref) {
				return false
			}
			head, ok := q.Peek()
			if ok != (len(ref) > 0) || (ok && head != ref[0]) {
				return false
			}
			for i := 0; i < q.head; i++ {
				if q.items[i] != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminismAndRange(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	buf := make([]byte, 33)
	r.Bytes(buf)
	zero := 0
	for _, c := range buf {
		if c == 0 {
			zero++
		}
	}
	if zero == len(buf) {
		t.Fatal("Bytes produced all zeros")
	}
}

func TestRandZeroSeedRemapped(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

// The event path is the simulator's innermost loop: once the heap's backing
// array has grown, scheduling and executing an event must not allocate —
// this is what keeps a polling wait loop (Sleep per PollGap) alloc-free.
func TestEventPathZeroAllocsSteadyState(t *testing.T) {
	e := New()
	fired := 0
	fn := func() { fired++ }
	// Warm the heap's backing array past the live event count used below.
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			e.After(Time(i), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("schedule+run allocated %.1f times per run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("events never fired")
	}
}

// Heap ordering must survive the container/heap removal: events run in
// (time, schedule-order) sequence even when pushed out of order.
func TestEventOrderingAfterManualHeap(t *testing.T) {
	e := New()
	var got []int
	times := []Time{5, 1, 3, 1, 4, 0, 5, 2}
	for i, at := range times {
		i, at := i, at
		e.After(at, func() { got = append(got, i) })
	}
	e.Run()
	want := []int{5, 1, 3, 7, 2, 4, 0, 6} // sorted by (at, seq)
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

// A sleeping process must not allocate per iteration: the cached wake
// closure and the boxed-interface-free heap together make the classic
// poll-gap spin loop zero-alloc in steady state.
func TestProcSleepLoopZeroAllocs(t *testing.T) {
	e := New()
	var allocs float64
	e.Go("spinner", func(p *Proc) {
		// Warm up inside the proc so the measurement sees steady state.
		for i := 0; i < 64; i++ {
			p.Sleep(1)
		}
		allocs = testing.AllocsPerRun(100, func() { p.Sleep(1) })
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("Proc.Sleep allocated %.1f times per iteration, want 0", allocs)
	}
}

// runPanic runs e and returns the value Run panicked with, or nil.
func runPanic(e *Engine) (v any) {
	defer func() { v = recover() }()
	e.Run()
	return nil
}

func explode(p *Proc) {
	p.Sleep(time.Microsecond)
	panic("boom")
}

// A panic inside a process unwinds the process's coroutine and is
// re-raised from Run on the caller's goroutine, where recover catches it,
// with the process's own stack at the panic.
func TestProcPanicPropagatesToRun(t *testing.T) {
	e := New()
	e.Go("bomb", explode)
	pp, ok := runPanic(e).(*ProcPanic)
	if !ok || pp.Value != "boom" || pp.Proc != "bomb" {
		t.Fatalf("Run panicked with %#v, want a ProcPanic of bomb carrying boom", pp)
	}
	if !strings.Contains(string(pp.Stack), "sim.explode") {
		t.Errorf("panic stack does not reach the panicking function:\n%s", pp.Stack)
	}
	if e.Now() != time.Microsecond {
		t.Fatalf("Now = %v, want 1µs", e.Now())
	}
}

// Once Run drains, no process coroutine survives: finished processes sit
// on the engine's free list until Run stops them.
func TestRunStopsIdleCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	for i := 0; i < 8; i++ {
		e.Go("worker", func(p *Proc) {
			p.Sleep(Time(i))
			e.Go("child", func(c *Proc) { c.Yield() })
		})
	}
	e.Run()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after Run, %d before", after, before)
	}
}

// A child spawned from a running process reuses the pooled Proc of one
// that finished, and Go plus the child's run allocate at most the
// caller's own closure.
func TestChildProcReusesPooledCoroutine(t *testing.T) {
	e := New()
	ran := 0
	var allocs float64
	e.Go("parent", func(p *Proc) {
		e.Go("child", func(*Proc) { ran++ })
		p.Yield()
		allocs = testing.AllocsPerRun(100, func() {
			e.Go("child", func(*Proc) { ran++ })
			p.Yield()
		})
	})
	e.Run()
	if ran != 102 {
		t.Fatalf("children ran %d times, want 102", ran)
	}
	if allocs > 1 {
		t.Errorf("Go + child run allocated %.1f times, want at most 1", allocs)
	}
}

// Waking a finished process panics, also when its Proc was reused by a
// later Go before finishing again.
func TestWakingFinishedProcPanics(t *testing.T) {
	e := New()
	e.Go("parent", func(p *Proc) {
		first := e.Go("first", func(*Proc) {})
		p.Yield()
		second := e.Go("second", func(*Proc) {})
		p.Yield()
		if second != first {
			t.Error("Go did not reuse the finished Proc")
		}
		e.After(0, second.wake)
	})
	v := runPanic(e)
	if msg, _ := v.(string); !strings.Contains(msg, `waking finished process "second"`) {
		t.Fatalf("Run panicked with %v, want a finished-process wake panic", v)
	}
}

// The deadlock check still counts a reused Proc parked forever.
func TestDeadlockPanicsOnReusedProc(t *testing.T) {
	e := New()
	var s Signal
	e.Go("parent", func(p *Proc) {
		first := e.Go("first", func(*Proc) {})
		p.Yield()
		if stuck := e.Go("stuck", func(q *Proc) { q.Wait(&s) }); stuck != first {
			t.Error("Go did not reuse the finished Proc")
		}
	})
	v := runPanic(e)
	if msg, _ := v.(string); !strings.Contains(msg, "deadlock: 1 process") {
		t.Fatalf("Run panicked with %v, want a deadlock panic", v)
	}
}
