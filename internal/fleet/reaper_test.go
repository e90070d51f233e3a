package fleet

import (
	"fmt"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// reapRun runs shard 0's reaper alone over the foreground futures submit
// hands to enqueue, on sc's rig and tenants. Item i carries arrival
// instant i ns and has a 1 ns phase of its own, so its phase cell's exact
// maximum latency gives back the instant the reaper recorded it; reapRun
// returns those instants and the foreground tenant the items ran on.
func reapRun(t *testing.T, sc Scenario, n int, submit func(p *sim.Proc, tn *offload.Tenant, enqueue func(*offload.Future))) ([]sim.Time, *offload.Tenant) {
	t.Helper()
	sc.Phases = make([]Phase, n)
	for i := range sc.Phases {
		sc.Phases[i] = Phase{Name: fmt.Sprint(i), Kind: Steady, Mult: 1, Dur: time.Nanosecond}
	}
	d := newDriver(sc)
	tn := d.fg[0].tn
	d.e.Go("reap", d.reaper(0))
	d.e.Go("submit", func(p *sim.Proc) {
		next := 0
		submit(p, tn, func(f *offload.Future) {
			d.enqueue(0, reapItem{fut: f, arr: sim.Time(next), cls: FG})
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
	return at, tn
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

// TestReaperHarvestsWrittenRecords pins the reaper's batch reaping. K
// foreground records written before the reaper's first Interrupt delivery
// ends are all recorded at that delivery's end, for one IntrDeliver +
// IntrHandler: the core is charged one handler pass. The negative
// control, a record written only after the reaper has gone back to
// waiting, pays a delivery of its own. A harvested record that faulted is
// retried, and the retry is waited for by Interrupt, not polled.
func TestReaperHarvestsWrittenRecords(t *testing.T) {
	tm := dsa.DefaultTiming()
	delivery := sim.Time(tm.IntrDeliver + tm.IntrHandler)
	sc := Packetswitch()

	t.Run("written records share one delivery", func(t *testing.T) {
		const k = 4
		const big = 1 << 20 // written long after the first delivery ends
		var busy sim.Time
		at, tn := reapRun(t, sc, k+1, func(p *sim.Proc, tn *offload.Tenant, enqueue func(*offload.Future)) {
			for i := 0; i < k; i++ {
				enqueue(copyOn(p, tn, tn.Alloc(sc.FgSize), tn.Alloc(sc.FgSize), sc.FgSize))
			}
			enqueue(copyOn(p, tn, tn.Alloc(big), tn.Alloc(big), big))
			busy = tn.Core.BusyTime()
		})
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
		at, tn := reapRun(t, sc, 2, func(p *sim.Proc, tn *offload.Tenant, enqueue func(*offload.Future)) {
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
		st := tn.Stats()
		if st.Faults != 1 || st.Retries != 1 {
			t.Fatalf("faults=%d retries=%d, want 1 and 1", st.Faults, st.Retries)
		}
		if gap := at[1] - at[0]; gap < delivery {
			t.Errorf("the retry ended %v after the harvest, want at least one Interrupt delivery (%v): it was polled", gap, delivery)
		}
	})
}
