package offload_test

import (
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// coalescePolicy returns a policy with interrupt moderation at the given
// count and a window wide enough that count is the effective trigger.
func coalescePolicy(count int) offload.Policy {
	pol := offload.DefaultPolicy()
	pol.CoalesceCount = count
	pol.CoalesceWindow = 50 * time.Microsecond
	return pol
}

// A bulk tenant's window of completions must cost one interrupt delivery,
// and the whole drain must be cheaper than per-descriptor delivery.
func TestCoalescedWaitsPayOneDeliveryPerWindow(t *testing.T) {
	const ops = 8
	elapsed := func(count int) sim.Time {
		r := newRig(t, 1)
		svc := r.service(t, offload.WithPolicy(coalescePolicy(count)))
		tn, err := svc.NewTenant()
		if err != nil {
			t.Fatal(err)
		}
		n := int64(16 << 10)
		src, dst := tn.Alloc(n), tn.Alloc(n)
		var total sim.Time
		r.run(func(p *sim.Proc) {
			start := p.Now()
			futs := make([]*offload.Future, 0, ops)
			for i := 0; i < ops; i++ {
				f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
				if err != nil {
					t.Error(err)
					return
				}
				futs = append(futs, f)
			}
			for _, f := range futs {
				if _, err := f.Wait(p, offload.Interrupt); err != nil {
					t.Error(err)
				}
			}
			total = p.Now() - start
		})
		if count > 1 {
			k := tn.Coalescer()
			if k == nil {
				t.Fatal("bulk tenant with CoalesceCount > 1 has no coalescer")
			}
			if k.Deliveries() != 1 {
				t.Errorf("count %d: Deliveries = %d, want 1", count, k.Deliveries())
			}
			if k.CoalescedRecords() != ops-1 {
				t.Errorf("count %d: CoalescedRecords = %d, want %d", count, k.CoalescedRecords(), ops-1)
			}
		} else if tn.Coalescer() != nil {
			t.Error("CoalesceCount ≤ 1 still built a coalescer")
		}
		return total
	}
	perDesc := elapsed(1)
	coalesced := elapsed(ops)
	if coalesced >= perDesc {
		t.Errorf("coalesced drain (%v) not cheaper than per-descriptor delivery (%v)", coalesced, perDesc)
	}
}

// Latency-sensitive tenants bypass moderation: no coalescer, per-descriptor
// delivery — unless the policy opts every class in.
func TestLatencySensitiveBypassesCoalescing(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithPolicy(coalescePolicy(16)))
	ls, err := svc.NewTenant(offload.WithClass(offload.LatencySensitive))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Coalescer() != nil {
		t.Error("latency-sensitive tenant got a coalescer by default")
	}
	pol := coalescePolicy(16)
	pol.CoalesceAll = true
	ls.SetPolicy(pol)
	if ls.Coalescer() == nil {
		t.Error("CoalesceAll did not opt the latency-sensitive tenant in")
	}
	bulk, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Coalescer() == nil {
		t.Error("bulk tenant with CoalesceCount 16 has no coalescer")
	}
}

// SetPolicy must take effect on the next operation: disabling coalescing
// drops the coalescer, changing the knobs rebuilds it.
func TestSetPolicyRetunesCoalescer(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithPolicy(coalescePolicy(8)))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	first := tn.Coalescer()
	if first == nil || first.Count() != 8 {
		t.Fatalf("initial coalescer = %+v, want count 8", first)
	}
	if again := tn.Coalescer(); again != first {
		t.Error("unchanged policy rebuilt the coalescer")
	}
	tn.SetPolicy(coalescePolicy(32))
	second := tn.Coalescer()
	if second == first || second == nil || second.Count() != 32 {
		t.Error("count change did not rebuild the coalescer")
	}
	pol := offload.DefaultPolicy()
	tn.SetPolicy(pol)
	if tn.Coalescer() != nil {
		t.Error("disabling coalescing left a coalescer attached")
	}
}

// A window left unset falls back to DefaultCoalesceWindow (tick-rounded),
// so a count-triggered policy can never strand a tail.
func TestCoalesceWindowDefaults(t *testing.T) {
	r := newRig(t, 1)
	pol := offload.DefaultPolicy()
	pol.CoalesceCount = 16 // no window
	svc := r.service(t, offload.WithPolicy(pol))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	k := tn.Coalescer()
	if k == nil {
		t.Fatal("no coalescer")
	}
	if k.Window() < offload.DefaultCoalesceWindow {
		t.Errorf("Window = %v, want at least the %v default", k.Window(), offload.DefaultCoalesceWindow)
	}
	// A short tail (fewer than count) must still complete via the timer.
	n := int64(16 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	r.run(func(p *sim.Proc) {
		f1, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		f2, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f1.Wait(p, offload.Interrupt); err != nil {
			t.Error(err)
		}
		if _, err := f2.Wait(p, offload.Interrupt); err != nil {
			t.Error(err)
		}
	})
	if k.Deliveries() != 1 {
		t.Errorf("Deliveries = %d, want 1 timer-fired delivery for the tail", k.Deliveries())
	}
}

// A policy swap under load must not orphan in-flight windows: completions
// tracked on the old moderation vector are announced by it, and waits on
// them resolve through that vector's shared delivery — not the expensive
// per-descriptor fallback. The swapped run must cost exactly what the
// unswapped run costs, since the swap only affects descriptors submitted
// after it.
func TestPolicySwapUnderLoadDeliversInFlight(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithPolicy(coalescePolicy(4)))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(16 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	r.run(func(p *sim.Proc) {
		futs := make([]*offload.Future, 0, 4)
		for i := 0; i < 4; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			futs = append(futs, f)
		}
		old := tn.Coalescer()
		// Retune while the four submissions are in flight. The next
		// operation rebuilds the vector and re-points the (single) client,
		// so the in-flight completions' vector and the client's no longer
		// match — the regression scenario.
		pol := coalescePolicy(2)
		pol.CoalesceWindow = 100 * time.Microsecond
		tn.SetPolicy(pol)
		f5, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		if tn.Coalescer() == old {
			t.Error("policy swap did not rebuild the coalescer")
		}
		// Wait the post-swap future first: by the time its (timer-bounded)
		// delivery resolves, the old vector's count trigger has long since
		// announced the four in-flight records.
		if _, err := f5.Wait(p, offload.Interrupt); err != nil {
			t.Error(err)
		}
		if old.Deliveries() == 0 {
			t.Error("old coalescer announced nothing for its in-flight window")
		}
		if old.Pending() != 0 {
			t.Errorf("old coalescer still holds %d undelivered records", old.Pending())
		}
		// Draining the four already-announced records must cost one shared
		// delivery at most — the per-descriptor fallback would pay the full
		// delivery latency plus handler four times over.
		start := p.Now()
		for _, f := range futs {
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				t.Error(err)
			}
		}
		drain := p.Now() - start
		tm := dsa.DefaultTiming()
		if limit := 2 * (tm.IntrDeliver + tm.IntrHandler); drain >= limit {
			t.Errorf("draining in-flight records took %v, want under %v (one shared delivery)", drain, limit)
		}
	})
}

// Admission-control retries fold into the coalescing window: a
// backpressured tenant sleeps at least one moderation window per retry,
// so tokens accrue in batches and the wakeup count stays far below one
// per delayed submission.
func TestAdmissionRetriesFoldIntoCoalesceWindows(t *testing.T) {
	wakeups := func(coalesce int) (int64, int64) {
		r := newRig(t, 1)
		pol := coalescePolicy(coalesce)
		pol.CoalesceWindow = 40 * time.Microsecond
		// One token per 10µs with room to bank four: a window-long sleep
		// accrues tokens for the next several sub-batches, which is the
		// whole point of folding the retries.
		pol.AdmitRate = 100e3
		pol.AdmitBurst = 8
		pol.AdmitWait = true
		svc := r.service(t, offload.WithPolicy(pol))
		tn, err := svc.NewTenant()
		if err != nil {
			t.Fatal(err)
		}
		n := int64(16 << 10)
		src, dst := tn.Alloc(n), tn.Alloc(n)
		r.run(func(p *sim.Proc) {
			futs := make([]*offload.Future, 0, 24)
			for i := 0; i < 24; i++ {
				f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
				if err != nil {
					t.Error(err)
					return
				}
				futs = append(futs, f)
			}
			for _, f := range futs {
				if _, err := f.Wait(p, offload.Interrupt); err != nil {
					t.Error(err)
				}
			}
		})
		st := tn.Stats()
		return st.AdmitWakeups, st.Delayed
	}
	folded, foldedDelayed := wakeups(8)
	unfolded, unfoldedDelayed := wakeups(1)
	if foldedDelayed == 0 || unfoldedDelayed == 0 {
		t.Fatalf("admission control never delayed (folded %d, unfolded %d): rate knob broken",
			foldedDelayed, unfoldedDelayed)
	}
	if unfolded == 0 {
		t.Fatal("unfolded run recorded no wakeups")
	}
	if folded >= unfolded {
		t.Errorf("folded wakeups = %d, want fewer than the per-token %d", folded, unfolded)
	}
}

// CoalesceAdaptive sizes the window from the tenant's observed completion
// inter-arrival gap: after a stream of closely spaced completions the
// window shrinks below the static bound; with no history it starts there.
func TestCoalesceAdaptiveWindowTracksArrivalRate(t *testing.T) {
	r := newRig(t, 1)
	pol := coalescePolicy(4)
	pol.CoalesceWindow = 200 * time.Microsecond
	pol.CoalesceAdaptive = true
	svc := r.service(t, offload.WithPolicy(pol))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	first := tn.Coalescer()
	if first == nil {
		t.Fatal("no coalescer")
	}
	if first.Window() < 200*time.Microsecond {
		t.Fatalf("pre-history window = %v, want the static %v", first.Window(), 200*time.Microsecond)
	}
	n := int64(16 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	r.run(func(p *sim.Proc) {
		for round := 0; round < 8; round++ {
			futs := make([]*offload.Future, 0, 4)
			for i := 0; i < 4; i++ {
				f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
				if err != nil {
					t.Error(err)
					return
				}
				futs = append(futs, f)
			}
			for _, f := range futs {
				if _, err := f.Wait(p, offload.Interrupt); err != nil {
					t.Error(err)
				}
			}
		}
	})
	tuned := tn.Coalescer()
	if tuned == nil {
		t.Fatal("coalescer dropped")
	}
	if tuned.Window() >= 200*time.Microsecond {
		t.Errorf("adaptive window = %v, want shrunk below the static 200µs after fast completions", tuned.Window())
	}
	if tick := dsa.DefaultTiming().IntrCoalesceTick; tuned.Window() < tick {
		t.Errorf("adaptive window = %v under the %v moderation tick", tuned.Window(), tick)
	}
}

// A split batch's sub-batch completions share the tenant's moderation
// vector: both sub-batches finishing within one window cost one delivery,
// so the multi-part Wait pays per window, not per sub-batch.
func TestSplitBatchSubBatchesShareOneDelivery(t *testing.T) {
	r := newRig(t, 2)
	pol := coalescePolicy(2)
	pol.CoalesceWindow = 200 * time.Microsecond
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()), offload.WithPolicy(pol))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	s0src, s0dst := tn.AllocOn(0, 2*n), tn.AllocOn(0, 2*n)
	s1src, s1dst := tn.AllocOn(1, 2*n), tn.AllocOn(1, 2*n)
	r.run(func(p *sim.Proc) {
		f, err := tn.NewBatch().
			Copy(s0dst.Addr(0), s0src.Addr(0), n).
			Copy(s0dst.Addr(n), s0src.Addr(n), n).
			Copy(s1dst.Addr(0), s1src.Addr(0), n).
			Copy(s1dst.Addr(n), s1src.Addr(n), n).
			Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := f.Wait(p, offload.Interrupt)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Record.Result != 4 {
			t.Errorf("joined Record.Result = %d, want 4", res.Record.Result)
		}
	})
	if st := tn.Stats(); st.Splits != 2 {
		t.Fatalf("Splits = %d, want 2", st.Splits)
	}
	k := tn.Coalescer()
	if k == nil {
		t.Fatal("no coalescer")
	}
	if k.Deliveries() != 1 {
		t.Errorf("Deliveries = %d, want 1 for both sub-batch records", k.Deliveries())
	}
	if k.CoalescedRecords() != 1 {
		t.Errorf("CoalescedRecords = %d, want 1 (second sub-batch rode the first's interrupt)", k.CoalescedRecords())
	}
}

// One hardware Future costs two switches into its process on the
// dispatch path: one for the prepare and portal write, one for the
// Interrupt wait, whether the interrupt is per descriptor (delivery +
// handler) or coalesced (record, window delivery, then the handler).
func TestFutureInterruptPathResumes(t *testing.T) {
	for _, count := range []int{1, 4} {
		r := newRig(t, 1)
		svc := r.service(t, offload.WithPolicy(coalescePolicy(count)))
		tn, err := svc.NewTenant()
		if err != nil {
			t.Fatal(err)
		}
		if coalesced := tn.Coalescer() != nil; coalesced != (count > 1) {
			t.Fatalf("count %d: coalescer present = %v", count, coalesced)
		}
		n := int64(16 << 10)
		src, dst := tn.Alloc(n), tn.Alloc(n)
		r.run(func(p *sim.Proc) {
			before := r.e.Resumes()
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			if got := r.e.Resumes() - before; got != 1 {
				t.Errorf("count %d: dispatch resumed %d times, want 1", count, got)
			}
			before = r.e.Resumes()
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				t.Error(err)
			}
			if got := r.e.Resumes() - before; got != 1 {
				t.Errorf("count %d: Interrupt wait resumed %d times, want 1", count, got)
			}
		})
	}
}
