package offload_test

import (
	"reflect"
	"testing"
	"time"

	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// A concurrent Done poller during a waitParts drain must never observe a
// premature success: Done flips true only once every sub-batch completed,
// and stays true afterwards.
func TestConcurrentDonePollingDuringWaitPartsDrain(t *testing.T) {
	r := newRig(t, 2)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256 << 10)
	s0src, s0dst := tn.AllocOn(0, n), tn.AllocOn(0, n)
	s1src, s1dst := tn.AllocOn(1, n), tn.AllocOn(1, n)

	var f *offload.Future
	var doneAt sim.Time = -1
	var waitedAt sim.Time = -1
	r.e.Go("submitter", func(p *sim.Proc) {
		var err error
		f, err = tn.NewBatch().
			Copy(s0dst.Addr(0), s0src.Addr(0), n).
			Copy(s1dst.Addr(0), s1src.Addr(0), n).
			Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
		waitedAt = p.Now()
		if !f.Done() {
			t.Error("future not done after Wait returned")
		}
	})
	r.e.Go("poller", func(p *sim.Proc) {
		for p.Now() < 100*time.Microsecond {
			if f != nil && f.Done() {
				if doneAt < 0 {
					doneAt = p.Now()
				}
			} else if doneAt >= 0 {
				t.Error("Done flipped back to false")
				return
			}
			p.Sleep(200 * time.Nanosecond)
		}
	})
	r.e.Run()
	if doneAt < 0 {
		t.Fatal("poller never observed completion")
	}
	if waitedAt < 0 {
		t.Fatal("Wait never returned")
	}
	// The poller samples every 200ns, so its first Done sighting lands at
	// or shortly after the drain finished — never materially before the
	// waiter resolved (a premature Done would show up microseconds early,
	// while the sub-batches were still in flight).
	if doneAt < waitedAt-time.Microsecond {
		t.Errorf("poller saw Done at %v, well before Wait resolved at %v", doneAt, waitedAt)
	}
	// Done must imply an immediate, cost-free Wait: re-waiting at the end
	// advances nothing.
	r.e.Go("rewait", func(p *sim.Proc) {
		before := p.Now()
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
		if p.Now() != before {
			t.Error("Wait on a Done future advanced virtual time")
		}
	})
	r.e.Run()
}

// Double-Wait stays idempotent under interrupt coalescing: the second Wait
// of a coalesced sibling returns the memoized result without advancing
// time, and siblings of one auto-batch resolve identical records.
func TestDoubleWaitIdempotentUnderCoalescing(t *testing.T) {
	r := newRig(t, 1)
	pol := offload.DefaultPolicy()
	pol.AutoBatch = 4
	pol.CoalesceCount = 4
	pol.CoalesceWindow = 50 * time.Microsecond
	svc := r.service(t, offload.WithPolicy(pol))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1 << 10)
	src, dst := tn.Alloc(4*n), tn.Alloc(4*n)
	r.run(func(p *sim.Proc) {
		futs := make([]*offload.Future, 0, 4)
		for i := int64(0); i < 4; i++ {
			f, err := tn.Copy(p, dst.Addr(i*n), src.Addr(i*n), n)
			if err != nil {
				t.Error(err)
				return
			}
			futs = append(futs, f)
		}
		first := make([]offload.Result, len(futs))
		for i, f := range futs {
			res, err := f.Wait(p, offload.Interrupt)
			if err != nil {
				t.Error(err)
				return
			}
			first[i] = res
		}
		before := p.Now()
		for i, f := range futs {
			res, err := f.Wait(p, offload.Interrupt)
			if err != nil {
				t.Error(err)
			}
			if !reflect.DeepEqual(res, first[i]) {
				t.Errorf("future %d: second Wait = %+v, want %+v", i, res, first[i])
			}
		}
		if p.Now() != before {
			t.Error("second Waits advanced virtual time")
		}
	})
}

// The resolved Wait fast path is the completion hot loop's exit: once a
// future is done, re-reading it must not allocate (the per-Pick analogue
// of TestPickZeroAllocs, extended to the wait side).
func TestResolvedWaitZeroAllocs(t *testing.T) {
	r := newRig(t, 1)
	pol := offload.DefaultPolicy()
	pol.CoalesceCount = 4
	pol.CoalesceWindow = 20 * time.Microsecond
	svc := r.service(t, offload.WithPolicy(pol))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	r.run(func(p *sim.Proc) {
		// One hardware future resolved through the coalesced interrupt
		// path and one software future: both fast paths must be free.
		hw, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := hw.Wait(p, offload.Interrupt); err != nil {
			t.Error(err)
			return
		}
		sw, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 512, offload.On(offload.Software))
		if err != nil {
			t.Error(err)
			return
		}
		for _, f := range []*offload.Future{hw, sw} {
			f := f
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := f.Wait(p, offload.Interrupt); err != nil {
					t.Error(err)
				}
				if !f.Done() {
					t.Error("resolved future not done")
				}
			})
			if allocs != 0 {
				t.Errorf("resolved Wait allocated %.1f times per run, want 0", allocs)
			}
		}
	})
}

// A warmed hardware Future round trip — Copy of 4 KB, an interrupt Wait,
// then Release — allocates nothing: the Future comes from the tenant's
// free list and its Completion, with the waiter list it keeps, from the
// device's. A regression on the submit→complete path trips here rather
// than only in the benchmark harness.
func TestFutureCopyAllocBudget(t *testing.T) {
	const budget = 0
	r := newRig(t, 1)
	svc := r.service(t)
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tn.Alloc(4<<10), tn.Alloc(4<<10)
	sim.NewRand(5).Bytes(src.Bytes())
	var allocs float64
	r.run(func(p *sim.Proc) {
		op := func() {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 4<<10, offload.On(offload.Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				t.Error(err)
			}
			f.Release()
		}
		for i := 0; i < 64; i++ {
			op()
		}
		allocs = testing.AllocsPerRun(200, op)
	})
	if allocs > budget {
		t.Errorf("Copy+Wait+Release allocated %.2f times per op, budget %d", allocs, budget)
	}
}

// Harvest reads a record already written when the caller's wait ended:
// two copies finish close together, the first is waited for by Interrupt,
// and the second then resolves at that instant with no delivery and no
// handler charged to the core. Harvest of a pending future panics.
func TestHarvestReadsWrittenRecordWithoutWait(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(4 << 10)
	r.run(func(p *sim.Proc) {
		copyOf := func(size int64) *offload.Future {
			f, err := tn.Copy(p, tn.Alloc(size).Addr(0), tn.Alloc(size).Addr(0), size, offload.On(offload.Hardware))
			if err != nil {
				panic(err) // a refused submission on an idle rig is a bug
			}
			return f
		}
		a, b := copyOf(n), copyOf(n)
		if _, err := a.Wait(p, offload.Interrupt); err != nil {
			t.Error(err)
			return
		}
		if !b.Done() {
			t.Error("the second record was not written by the first delivery's end")
			return
		}
		at, busy := p.Now(), tn.Core.BusyTime()
		res, err := b.Harvest(p, offload.Interrupt)
		if err != nil || !res.Hardware {
			t.Errorf("Harvest: %+v, %v", res, err)
		}
		if p.Now() != at || tn.Core.BusyTime() != busy {
			t.Errorf("Harvest took %v and charged the core %v, want neither", p.Now()-at, tn.Core.BusyTime()-busy)
		}
		pending := copyOf(1 << 20)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Harvest of a pending future did not panic")
				}
			}()
			pending.Harvest(p, offload.Interrupt)
		}()
		if _, err := pending.Wait(p, offload.Interrupt); err != nil {
			t.Error(err)
		}
	})
}
