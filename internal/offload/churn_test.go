package offload_test

// Tenant churn: fleet-scale services retire and replace tenants while
// operations are still in flight. These tests pin the lifecycle contract
// Close promises — queued work flushes, in-flight futures stay waitable
// (including under interrupt coalescing, whose last window must still
// deliver for a closed tenant), and every later submission path fails
// with ErrTenantClosed.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

func TestCloseWithInflightFuturesUnderCoalescing(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t)
	pol := offload.DefaultPolicy()
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 4
	pol.CoalesceWindow = 8 * time.Microsecond
	pol.AutoBatch = 4
	tn, err := svc.NewTenant(offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	small := int64(1 << 10)

	r.run(func(p *sim.Proc) {
		var futs []*offload.Future
		// Hardware copies left in flight across Close.
		for i := 0; i < 6; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		// Sub-threshold Auto copies queued unflushed in the AutoBatcher:
		// Close must flush them so their futures are not stranded.
		for i := 0; i < 3; i++ {
			f, err := tn.Copy(p, dst.Addr(small), src.Addr(small), small)
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		if err := tn.Close(p); err != nil {
			t.Fatalf("Close with in-flight futures: %v", err)
		}
		if !tn.Closed() {
			t.Fatal("Closed() false after Close")
		}
		if err := tn.Close(p); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("second Close = %v, want ErrTenantClosed", err)
		}
		// Every submission path is shut: hardware, software, pipeline.
		if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware)); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("hardware Copy after Close = %v, want ErrTenantClosed", err)
		}
		if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), small, offload.NoBatch()); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("software Copy after Close = %v, want ErrTenantClosed", err)
		}
		pl := tn.NewPipeline()
		pl.CRC32(offload.At(src.Addr(0)), n, 0)
		if _, err := pl.Submit(p); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("pipeline Submit after Close = %v, want ErrTenantClosed", err)
		}
		// The in-flight and flushed futures all still resolve.
		for i, f := range futs {
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				t.Fatalf("future %d after Close: %v", i, err)
			}
		}
	})
}

func TestPlaneCloseDetachesRingsForSuccessor(t *testing.T) {
	r := newRig(t, 1, dsa.WQConfig{Mode: dsa.Shared, Size: 32})
	svc := r.service(t)
	tn, err := svc.NewTenant(offload.WithClass(offload.Bulk))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tn.NewPlane(2)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(32 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)

	var lats []sim.Time
	pl.OnCompletion(func(lat sim.Time, ok bool) { lats = append(lats, lat) })

	r.run(func(p *sim.Proc) {
		lane := pl.Lane(0)
		arrival := p.Now()
		p.Sleep(3 * time.Microsecond)
		for i := 0; i < 4; i++ {
			err := lane.SubmitStamped(p, dsa.Descriptor{
				Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: n,
			}, arrival)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := pl.Close(); err == nil {
			t.Fatal("Close with work outstanding succeeded")
		}
		pl.WaitInflight(p, 0)
		if len(lats) != 4 {
			t.Fatalf("observer saw %d completions, want 4", len(lats))
		}
		// Stamped latency spans arrival→record, so it includes the 3µs
		// the submitter sat on the ops before submitting.
		for _, lat := range lats {
			if lat < 3*time.Microsecond {
				t.Fatalf("stamped latency %v shorter than the pre-submit delay", lat)
			}
		}
		if err := tn.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := lane.Submit(p, dsa.Descriptor{
			Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: n,
		}); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("lane Submit after Close = %v, want ErrTenantClosed", err)
		}
		if err := pl.Close(); err != nil {
			t.Fatalf("drained plane Close: %v", err)
		}
		// The WQ rings are free again: a replacement tenant attaches its
		// own plane where NewPlane would have refused before.
		tn2, err := svc.NewTenant(offload.WithClass(offload.Bulk))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn2.NewPlane(1); err != nil {
			t.Fatalf("successor NewPlane after Close: %v", err)
		}
	})
}

// Tenant retirement racing the recovery plane: one tenant closes while
// its fused pipeline is mid-fault-retry inside a page-fault storm, and a
// second tenant's submission plane rides a whole-device outage through
// drain failover at the same instant. Close's contract must hold under
// fire — the in-flight future stays waitable and resolves through the
// retry, the failed-over plane drains fully, and every post-close
// submission path still reports ErrTenantClosed.
func TestCloseRacesFaultingPipelineWithFailover(t *testing.T) {
	r := newRig(t, 2, dsa.WQConfig{Mode: dsa.Shared, Size: 16})
	if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{
		Seed:    31,
		Bursts:  []dsa.FaultBurst{{At: 0, Dur: sim.Time(4 * time.Microsecond), Per4K: 1}},
		Outages: []dsa.Outage{{At: sim.Time(10 * time.Microsecond), Dur: sim.Time(60 * time.Microsecond)}},
	}); err != nil {
		t.Fatal(err)
	}
	// NUMALocal keeps both tenants' traffic on their socket, device 0, so
	// the chain meets the storm and the plane the outage.
	svc := r.service(t, offload.WithScheduler(offload.NewNUMALocal()))
	pol := offload.DefaultPolicy()
	pol.RetryMax = 3
	ptn, err := svc.NewTenant(offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	btn, err := svc.NewTenant(offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(32 << 10)
	psrc, pdst := ptn.Alloc(n), ptn.Alloc(n)
	sim.NewRand(5).Bytes(psrc.Bytes())
	big := int64(256 << 10)
	bsrc, bdst := btn.Alloc(24*big), btn.Alloc(24*big)

	pl := ptn.NewPipeline()
	tmp := pl.Scratch(n)
	s1 := pl.Copy(tmp, offload.At(psrc.Addr(0)), n)
	pl.Copy(offload.At(pdst.Addr(0)), tmp, n, offload.After(s1))

	plane, err := btn.NewPlane(2)
	if err != nil {
		t.Fatal(err)
	}
	var done, failed int
	plane.OnCompletion(func(lat sim.Time, ok bool) {
		if ok {
			done++
		} else {
			failed++
		}
	})

	r.run(func(p *sim.Proc) {
		// The chain submits into the storm: its first attempt faults and
		// the retry is pending when Close lands.
		f, err := pl.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ptn.Close(p); err != nil {
			t.Fatalf("Close with a faulting chain in flight: %v", err)
		}
		if _, err := pl.Submit(p); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("pipeline Submit after Close = %v, want ErrTenantClosed", err)
		}
		// Meanwhile the bulk tenant's plane runs head-on into the outage.
		lane := plane.Lane(0)
		for i := int64(0); i < 24; i++ {
			if err := lane.SubmitStamped(p, dsa.Descriptor{
				Op: dsa.OpMemmove, Src: bsrc.Addr(i * big), Dst: bdst.Addr(i * big), Size: big,
			}, p.Now()); err != nil {
				t.Fatalf("plane submit %d: %v", i, err)
			}
		}
		// The closed tenant's future still resolves — through the retry.
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Fatalf("closed tenant's in-flight chain: %v", err)
		}
		plane.WaitInflight(p, 0)
		if err := btn.Close(p); err != nil {
			t.Fatalf("bulk Close after failover drain: %v", err)
		}
		if err := lane.Submit(p, dsa.Descriptor{
			Op: dsa.OpMemmove, Src: bsrc.Addr(0), Dst: bdst.Addr(0), Size: big,
		}); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("lane Submit after Close = %v, want ErrTenantClosed", err)
		}
	})
	if !bytes.Equal(pdst.Bytes(), psrc.Bytes()) {
		t.Fatal("closed tenant's recovered chain is not byte-correct")
	}
	if st := ptn.Stats(); st.Retries == 0 {
		t.Fatalf("pipeline tenant retries=%d, want nonzero (the storm covers attempt 1)", st.Retries)
	}
	if st := btn.Stats(); st.Failovers == 0 {
		t.Fatalf("bulk tenant failovers=%d, want >=1", st.Failovers)
	}
	if done+failed != 24 {
		t.Fatalf("plane accounted %d+%d completions, want 24", done, failed)
	}
}

func TestSLOBudgetAccounting(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t)
	pol := offload.DefaultPolicy()
	pol.SLOBudget = 500 * time.Microsecond
	tn, err := svc.NewTenant(offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	tight := pol
	tight.SLOBudget = time.Nanosecond
	miss, err := svc.NewTenant(offload.WithClass(offload.Bulk), offload.TenantPolicy(tight))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	msrc, mdst := miss.Alloc(n), miss.Alloc(n)

	r.run(func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Fatal(err)
			}
		}
		// A software-path op is scored too.
		if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 256, offload.On(offload.Software)); err != nil {
			t.Fatal(err)
		}
		f, err := miss.Copy(p, mdst.Addr(0), msrc.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Fatal(err)
		}
	})

	if s := tn.Stats(); s.SLOOk != 4 || s.SLOMiss != 0 {
		t.Fatalf("generous budget: ok=%d miss=%d, want 4/0", s.SLOOk, s.SLOMiss)
	}
	if s := miss.Stats(); s.SLOOk != 0 || s.SLOMiss != 1 {
		t.Fatalf("1ns budget: ok=%d miss=%d, want 0/1", s.SLOOk, s.SLOMiss)
	}
}
