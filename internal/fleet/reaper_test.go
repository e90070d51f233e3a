package fleet

import (
	"fmt"
	"testing"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// reapRun runs shard 0's reaper alone, waiting in mode wait, over the
// foreground futures submit hands to enqueue, on sc's rig and tenants;
// submit runs on shard 0's submitter process of driver d. Item i carries
// arrival instant i ns and
// has a 1 ns phase of its own, so its phase cell's exact maximum latency
// gives back the instant the reaper recorded it; reapRun returns those
// instants and the drained driver, whose foreground tenant d.fg[0].tn the
// items ran on.
func reapRun(t *testing.T, sc Scenario, wait offload.WaitMode, n int, submit func(p *sim.Proc, d *driver, enqueue func(*offload.Future))) ([]sim.Time, *driver) {
	t.Helper()
	sc.Phases = make([]Phase, n)
	for i := range sc.Phases {
		sc.Phases[i] = Phase{Name: fmt.Sprint(i), Kind: Steady, Mult: 1, Dur: time.Nanosecond}
	}
	d := newDriver(sc)
	d.fgWait = wait
	d.e.Go("reap", d.reaper(0))
	d.e.Go("submit", func(p *sim.Proc) {
		next := 0
		submit(p, d, func(f *offload.Future) {
			d.enqueue(0, reapItem{fut: f, arr: sim.Time(next)})
			next++
		})
		d.subDone[0] = true
		d.reapSig[0].Broadcast(d.e)
	})
	d.e.Run()
	at := make([]sim.Time, n)
	for i := range at {
		a := &d.acc[i][FG]
		if a.done != 1 || a.failed != 0 {
			t.Fatalf("item %d: recorded %d times, %d failed; want once, succeeded", i, a.done, a.failed)
		}
		at[i] = sim.Time(a.lat.Max()) + sim.Time(i)
	}
	if n := d.reapQ[0].Len(); n != 0 {
		t.Fatalf("the reaper left %d items queued", n)
	}
	return at, d
}

// copyOn submits one hardware copy of n bytes from src to dst. It runs on
// a simulated process, not the test goroutine, so a refused submission,
// which only a broken rig can cause, panics instead of calling t.Fatal.
func copyOn(p *sim.Proc, tn *offload.Tenant, dst, src *mem.Buffer, n int64) *offload.Future {
	f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
	if err != nil {
		panic(err)
	}
	return f
}

// writeWatch records the instant each watched future's record is
// written: a process of its own polls every nanosecond, so an instant is
// read at most 1 ns late. The reaper releases a future no sooner than one
// wake after its write, so the watch never reads a released one.
type writeWatch struct {
	futs    []*offload.Future
	written []sim.Time // 0 until seen written
}

// watchWrites starts a watch on e that ends once it has seen n records
// written.
func watchWrites(e *sim.Engine, n int) *writeWatch {
	w := &writeWatch{}
	e.Go("watch", func(p *sim.Proc) {
		seen := 0
		p.SleepPoll(1, func(any) bool {
			for i, f := range w.futs {
				if w.written[i] == 0 && f.Done() {
					w.written[i] = p.Now()
					seen++
				}
			}
			return seen == n
		}, nil)
	})
	return w
}

// add watches f.
func (w *writeWatch) add(f *offload.Future) {
	w.futs = append(w.futs, f)
	w.written = append(w.written, 0)
}

// TestReaperHarvestsWrittenRecords pins the reaper's batch reaping in both
// wait modes.
//
// With an Interrupt foreground policy, K records written before the
// reaper's first delivery ends are all recorded at that delivery's end,
// for one IntrDeliver + IntrHandler: the core is charged one handler
// pass. The negative control, a record written only after the reaper has
// gone back to waiting, pays a delivery of its own. A harvested record
// that faulted is retried, and the retry is waited for by Interrupt, not
// polled.
//
// Under the shipped foreground policy the reaper waits by UMWAIT: every
// record is recorded within cpu.UMWaitWake of its write, each wait charges
// the core one UMWaitWake and no handler while it stays parked on the
// record, and a harvested faulted record's retry is waited for by UMWAIT
// too.
func TestReaperHarvestsWrittenRecords(t *testing.T) {
	tm := dsa.DefaultTiming()
	delivery := sim.Time(tm.IntrDeliver + tm.IntrHandler)
	sc := Packetswitch()

	t.Run("written records share one delivery", func(t *testing.T) {
		const k = 4
		const big = 1 << 20 // written long after the first delivery ends
		var busy sim.Time
		at, d := reapRun(t, sc, offload.Interrupt, k+1, func(p *sim.Proc, d *driver, enqueue func(*offload.Future)) {
			tn := d.fg[0].tn
			for i := 0; i < k; i++ {
				enqueue(copyOn(p, tn, tn.Alloc(sc.FgSize), tn.Alloc(sc.FgSize), sc.FgSize))
			}
			enqueue(copyOn(p, tn, tn.Alloc(big), tn.Alloc(big), big))
			busy = tn.Core.BusyTime()
		})
		tn := d.fg[0].tn
		for i := 1; i < k; i++ {
			if at[i] != at[0] {
				t.Errorf("written record %d recorded at %v, the head at %v: want the same instant", i, at[i], at[0])
			}
		}
		if gap := at[k] - at[0]; gap < delivery {
			t.Errorf("the later record was recorded %v after the harvest, want at least one delivery (%v)", gap, delivery)
		}
		// The core pays one handler pass for the harvested records and one
		// for the later record, none for the other k-1.
		if handlers := tn.Core.BusyTime() - busy; handlers != 2*sim.Time(tm.IntrHandler) {
			t.Errorf("reaping charged the core %v, want two handler passes (%v)", handlers, 2*tm.IntrHandler)
		}
	})

	t.Run("harvested fault retries by interrupt", func(t *testing.T) {
		sc := sc
		sc.Faults = &FaultPlan{} // arms recovery; the one fault is a cold page
		var faultedAt sim.Time
		at, d := reapRun(t, sc, offload.Interrupt, 2, func(p *sim.Proc, d *driver, enqueue func(*offload.Future)) {
			tn := d.fg[0].tn
			enqueue(copyOn(p, tn, tn.Alloc(sc.FgSize), tn.Alloc(sc.FgSize), sc.FgSize))
			cold := tn.Alloc(sc.FgSize, mem.Lazy())
			f := copyOn(p, tn, cold, tn.Alloc(sc.FgSize), sc.FgSize)
			enqueue(f)
			// The OS maps the page once the fault is reported, so the
			// retry succeeds.
			for !f.Done() {
				p.Sleep(sim.Time(10 * time.Nanosecond))
			}
			faultedAt = p.Now()
			cold.TouchAll()
		})
		if faultedAt >= at[0] {
			t.Fatalf("the faulted record was written at %v, not before the head's delivery ended at %v", faultedAt, at[0])
		}
		st := d.fg[0].tn.Stats()
		if st.Faults != 1 || st.Retries != 1 {
			t.Fatalf("faults=%d retries=%d, want 1 and 1", st.Faults, st.Retries)
		}
		if gap := at[1] - at[0]; gap < delivery {
			t.Errorf("the retry ended %v after the harvest, want at least one Interrupt delivery (%v): it was polled", gap, delivery)
		}
	})

	wait := fgPolicy(sc).Wait
	if wait != offload.UMWait {
		t.Fatalf("the foreground policy waits in mode %v, want UMWait", wait)
	}

	t.Run("umwait records within one wake of the write", func(t *testing.T) {
		const k = 4
		var w *writeWatch
		at, _ := reapRun(t, sc, wait, k+2, func(p *sim.Proc, d *driver, enqueue func(*offload.Future)) {
			tn := d.fg[0].tn
			w = watchWrites(p.Engine(), k+2)
			submit := func() {
				f := copyOn(p, tn, tn.Alloc(sc.FgSize), tn.Alloc(sc.FgSize), sc.FgSize)
				w.add(f)
				enqueue(f)
			}
			// K back to back, then two more, each once the reaper has
			// gone back to waiting with nothing queued.
			for i := 0; i < k; i++ {
				submit()
			}
			for i := 0; i < 2; i++ {
				p.Sleep(sim.Time(20 * time.Microsecond))
				submit()
			}
		})
		for i := range at {
			if lag := at[i] - w.written[i]; lag > cpu.UMWaitWake {
				t.Errorf("record %d was recorded %v after its write, want at most UMWaitWake (%v)", i, lag, cpu.UMWaitWake)
			}
		}
	})

	t.Run("umwait charges one wake per wait", func(t *testing.T) {
		// Each record is written long after the one before it, so the
		// reaper waits for every one of them.
		sizes := []int64{64 << 10, 256 << 10, 1 << 20}
		var busy, parked sim.Time
		var w *writeWatch
		at, d := reapRun(t, sc, wait, len(sizes), func(p *sim.Proc, d *driver, enqueue func(*offload.Future)) {
			tn := d.fg[0].tn
			w = watchWrites(p.Engine(), len(sizes))
			for _, n := range sizes {
				f := copyOn(p, tn, tn.Alloc(n), tn.Alloc(n), n)
				w.add(f)
				enqueue(f)
			}
			busy, parked = tn.Core.BusyTime(), tn.Core.UMWaitTime()
		})
		for i := range at {
			if lag := at[i] - w.written[i]; lag < cpu.UMWaitWake-1 || lag > cpu.UMWaitWake {
				t.Errorf("record %d was recorded %v after its write, want UMWaitWake (%v): the reaper did not wait for it", i, lag, cpu.UMWaitWake)
			}
		}
		core := d.fg[0].tn.Core
		n := len(sizes)
		if got, want := core.BusyTime()-busy, sim.Time(n)*cpu.UMWaitWake; got != want {
			t.Errorf("reaping charged the core %v busy, want %d wakes (%v) and no handler", got, n, want)
		}
		// The core stays parked from each record's wake to the next
		// record's write.
		if got, least := core.UMWaitTime()-parked, at[n-1]-at[0]-sim.Time(n-1)*cpu.UMWaitWake; got < least {
			t.Errorf("the core was parked %v, want at least %v", got, least)
		}
	})

	t.Run("harvested fault retries by umwait", func(t *testing.T) {
		sc := sc
		sc.Faults = &FaultPlan{} // arms recovery; the one fault is a cold page
		var faultedAt, retryWritten, busy, parked sim.Time
		at, d := reapRun(t, sc, wait, 2, func(p *sim.Proc, d *driver, enqueue func(*offload.Future)) {
			tn := d.fg[0].tn
			// A head long enough that the fault is written before the
			// head's wake, as under Interrupt.
			const head = 64 << 10
			enqueue(copyOn(p, tn, tn.Alloc(head), tn.Alloc(head), head))
			cold := tn.Alloc(sc.FgSize, mem.Lazy())
			f := copyOn(p, tn, cold, tn.Alloc(sc.FgSize), sc.FgSize)
			enqueue(f)
			p.SleepPoll(1, func(any) bool { return f.Done() }, nil)
			faultedAt = p.Now()
			cold.TouchAll()
			// Once the retry is submitted the future stands for its
			// completion, so its next Done is the retry's write.
			p.SleepPoll(1, func(any) bool { return tn.Stats().Retries == 1 }, nil)
			busy, parked = tn.Core.BusyTime(), tn.Core.UMWaitTime()
			p.SleepPoll(1, func(any) bool { return f.Done() }, nil)
			retryWritten = p.Now()
		})
		if faultedAt >= at[0] {
			t.Fatalf("the faulted record was written at %v, not before the head's wake at %v", faultedAt, at[0])
		}
		st := d.fg[0].tn.Stats()
		if st.Faults != 1 || st.Retries != 1 {
			t.Fatalf("faults=%d retries=%d, want 1 and 1", st.Faults, st.Retries)
		}
		if lag := at[1] - retryWritten; lag < cpu.UMWaitWake-1 || lag > cpu.UMWaitWake {
			t.Errorf("the retry was recorded %v after its write, want UMWaitWake (%v)", lag, cpu.UMWaitWake)
		}
		core := d.fg[0].tn.Core
		if got := core.BusyTime() - busy; got != cpu.UMWaitWake {
			t.Errorf("the retry's wait charged the core %v busy, want one wake (%v) and no handler", got, cpu.UMWaitWake)
		}
		if core.UMWaitTime() == parked {
			t.Error("the core never parked on the retry's record")
		}
	})
}

// TestReaperDoesNotWaitBehindBursts pins that a broker burst never holds
// up a foreground completion. One full msgbroker burst is submitted on
// shard 0, then a 4 KB foreground op whose record is written long before
// the burst ends. The burst never enters the reaper's queue; the
// foreground op is recorded within one UMWAIT wake of its own record,
// not at the burst's end; and the burst's messages are recorded
// at the instant its pipeline resolved, which is the instant its pipeline
// returns to the shard's free list.
func TestReaperDoesNotWaitBehindBursts(t *testing.T) {
	tm := dsa.DefaultTiming()
	delivery := sim.Time(tm.IntrDeliver + tm.IntrHandler)
	sc := Msgbroker()
	queued := -1
	var written, freed sim.Time
	at, d := reapRun(t, sc, fgPolicy(sc).Wait, 1, func(p *sim.Proc, d *driver, enqueue func(*offload.Future)) {
		pending := make([]pendingMsg, sc.Burst)
		for i := range pending {
			pending[i] = pendingMsg{conn: i} // every message arrives at 0
		}
		d.flushBurst(p, 0, &pending)
		queued = d.reapQ[0].Len()
		tn := d.fg[0].tn
		f := copyOn(p, tn, tn.Alloc(sc.FgSize), tn.Alloc(sc.FgSize), sc.FgSize)
		enqueue(f)
		// Both polls run at 1 ns, so each instant reads back at most 1 ns
		// late. The reaper releases f one wake after its record is
		// written, after this poll has seen it Done.
		p.SleepPoll(1, func(any) bool { return f.Done() }, nil)
		written = p.Now()
		p.SleepPoll(1, func(any) bool { return len(d.bursts[0]) == 1 }, nil)
		freed = p.Now()
	})
	if queued != 0 {
		t.Errorf("the reaper's queue held %d items after the burst was submitted, want 0", queued)
	}
	if written+delivery >= freed {
		t.Fatalf("the foreground record was written at %v, not one delivery (%v) before the burst resolved at %v", written, delivery, freed)
	}
	if lag := at[0] - written; lag > cpu.UMWaitWake {
		t.Errorf("the foreground op was recorded %v after its record was written, want at most one wake (%v)", lag, cpu.UMWaitWake)
	}
	bg := &d.acc[0][BG]
	if bg.done != int64(sc.Burst) || bg.failed != 0 {
		t.Fatalf("burst: %d of %d messages recorded, %d failed", bg.done, sc.Burst, bg.failed)
	}
	if end := sim.Time(bg.lat.Max()); end > freed || end < freed-1 {
		t.Errorf("the burst was recorded at %v, want the instant its pipeline resolved (%v, within the 1 ns poll)", end, freed)
	}
}
