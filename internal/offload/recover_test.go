package offload_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// recoveryPolicy is the default policy with fault recovery armed.
func recoveryPolicy(retries, fallbackAfter int) offload.Policy {
	pol := offload.DefaultPolicy()
	pol.RetryMax = retries
	pol.FallbackAfter = fallbackAfter
	return pol
}

// A partial completion is continued, not restarted: the retry resubmits
// only the remainder past CompletionRecord.BytesCompleted, and the
// reassembled buffer is byte-correct. The injected fault storm covers
// the first attempts; the retry budget outlasts it.
func TestRecoveryContinuesPartialCompletion(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{
		Seed:   21,
		Bursts: []dsa.FaultBurst{{At: 0, Dur: sim.Time(2 * time.Microsecond), Per4K: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	svc := r.service(t)
	tn, err := svc.NewTenant(offload.TenantPolicy(recoveryPolicy(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	sim.NewRand(2).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Errorf("Wait: %v", err)
			return
		}
		if !res.Hardware {
			t.Error("recovered copy lost its hardware attribution")
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("recovered copy is not byte-correct")
	}
	st := tn.Stats()
	if st.Faults == 0 || st.Retries == 0 {
		t.Fatalf("faults=%d retries=%d, want both nonzero (the storm covers attempt 1)", st.Faults, st.Retries)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("fallbacks=%d, want 0 (recovery succeeded on hardware)", st.Fallbacks)
	}
}

// Under a persistent fault storm the tenant degrades to the software
// path after FallbackAfter consecutive faulted attempts, bounding
// worst-case latency, and the operation still completes byte-correct.
func TestFallbackAfterConsecutiveFaults(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{Seed: 22, PageFaultPer4K: 1}); err != nil {
		t.Fatal(err)
	}
	svc := r.service(t)
	tn, err := svc.NewTenant(offload.TenantPolicy(recoveryPolicy(10, 2)))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	sim.NewRand(3).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Errorf("Wait: %v (fallback should have absorbed the storm)", err)
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("fallback copy is not byte-correct")
	}
	st := tn.Stats()
	if st.Fallbacks != 1 {
		t.Fatalf("fallbacks=%d, want 1", st.Fallbacks)
	}
	if st.Faults != 2 {
		t.Fatalf("faults=%d, want 2 (FallbackAfter=2 engages on the second)", st.Faults)
	}
}

// A faulted child inside a fused pipeline chain re-runs the whole chain
// within the retry budget (the chain's ops are idempotent by
// construction), and the recovered run is byte-correct end to end.
func TestPipelineChainRetriesFaultedBatch(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{
		Seed:   23,
		Bursts: []dsa.FaultBurst{{At: 0, Dur: sim.Time(2 * time.Microsecond), Per4K: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	svc := r.service(t)
	tn, err := svc.NewTenant(offload.TenantPolicy(recoveryPolicy(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(32 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	sim.NewRand(4).Bytes(src.Bytes())

	pl := tn.NewPipeline()
	tmp := pl.Scratch(n)
	s1 := pl.Copy(tmp, offload.At(src.Addr(0)), n)
	pl.Copy(offload.At(dst.Addr(0)), tmp, n, offload.After(s1))

	r.run(func(p *sim.Proc) {
		f, err := pl.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Errorf("Wait: %v (chain retry should have recovered)", err)
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("retried chain is not byte-correct")
	}
	if got := pl.FailedStage(); got != -1 {
		t.Fatalf("FailedStage() = %d after a recovered run, want -1", got)
	}
	st := tn.Stats()
	if st.Retries == 0 {
		t.Fatalf("retries=%d, want nonzero (the storm covers the first chain)", st.Retries)
	}
}

// A whole-device outage under a submission plane: queued work completes
// with device_offline and is re-queued onto the surviving socket, the
// drain fails over the entries queued behind the dead WQs, lanes detour
// cross-socket, and the healed device serves traffic again.
func TestPlaneFailoverOnDeviceOutage(t *testing.T) {
	r := newRig(t, 2, dsa.WQConfig{Mode: dsa.Shared, Size: 16})
	// 256KB ops service at ~5µs apiece against a ~0.4µs submit cadence,
	// so by the 10µs outage instant device 0's WQ is full of queued,
	// undispatched work — exactly what the outage kills and recovery
	// must re-home.
	if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{
		Outages: []dsa.Outage{{At: sim.Time(10 * time.Microsecond), Dur: sim.Time(60 * time.Microsecond)}},
	}); err != nil {
		t.Fatal(err)
	}
	svc := r.service(t)
	pol := recoveryPolicy(2, 0)
	tn, err := svc.NewTenant(offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tn.NewPlane(2)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256 << 10)
	src, dst := tn.Alloc(32*n), tn.Alloc(32*n)
	var done, failed int
	pl.OnCompletion(func(lat sim.Time, ok bool) {
		if ok {
			done++
		} else {
			failed++
		}
	})
	r.run(func(p *sim.Proc) {
		lane := pl.Lane(0)
		for i := int64(0); i < 32; i++ {
			if err := lane.SubmitStamped(p, dsa.Descriptor{
				Op: dsa.OpMemmove, Src: src.Addr(i * n), Dst: dst.Addr(i * n), Size: n,
			}, p.Now()); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
		pl.WaitInflight(p, 0)
		preHeal := done
		if preHeal == 0 {
			t.Error("no completions during the outage epoch")
		}
		// Past the window: the healed device serves again.
		if heal := sim.Time(75 * time.Microsecond); p.Now() < heal {
			p.SleepUntil(heal)
		}
		for i := int64(0); i < 8; i++ {
			if err := lane.Submit(p, dsa.Descriptor{
				Op: dsa.OpMemmove, Src: src.Addr(i * n), Dst: dst.Addr(i * n), Size: n,
			}); err != nil {
				t.Errorf("post-heal submit %d: %v", i, err)
				return
			}
		}
		pl.WaitInflight(p, 0)
		if done <= preHeal {
			t.Errorf("no post-heal completions (done %d -> %d)", preHeal, done)
		}
	})
	// Every submission is accounted: completed or explicitly shed, never
	// silently stranded behind the dead queue.
	if done+failed != 40 {
		t.Fatalf("done=%d failed=%d, want 40 completions accounted", done, failed)
	}
	st := tn.Stats()
	if st.Failovers == 0 {
		t.Fatalf("failovers=%d, want >=1 (the drain must move entries off the dead rings)", st.Failovers)
	}
	if st.Faults == 0 || st.Retries == 0 {
		t.Fatalf("faults=%d retries=%d, want both nonzero (queued work re-queued cross-socket)", st.Faults, st.Retries)
	}
	t.Logf("done=%d failed=%d faults=%d retries=%d failovers=%d shed=%d",
		done, failed, st.Faults, st.Retries, st.Failovers, st.Failures)
}

// Every terminal error the stack hands back survives its wrapping: the
// sentinels stay errors.Is-visible through tenant submission, Future
// resolution, and pipeline chain joins.
func TestSentinelErrorsSurviveWrapping(t *testing.T) {
	n := int64(256 << 10)

	t.Run("admission", func(t *testing.T) {
		r := newRig(t, 1)
		svc := r.service(t)
		pol := offload.DefaultPolicy()
		pol.AdmitRate = 1 // one token/s: the second submission finds an empty bucket
		pol.AdmitBurst = 1
		pol.AdmitWait = false
		tn, err := svc.NewTenant(offload.TenantPolicy(pol))
		if err != nil {
			t.Fatal(err)
		}
		src, dst := tn.Alloc(n), tn.Alloc(n)
		r.run(func(p *sim.Proc) {
			if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n); err != nil {
				t.Errorf("first copy: %v", err)
				return
			}
			_, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
			if !errors.Is(err, offload.ErrAdmission) {
				t.Errorf("second copy err = %v, want ErrAdmission", err)
			}
		})
	})

	t.Run("tenant-closed", func(t *testing.T) {
		r := newRig(t, 1)
		svc := r.service(t)
		tn, err := svc.NewTenant()
		if err != nil {
			t.Fatal(err)
		}
		src, dst := tn.Alloc(n), tn.Alloc(n)
		r.run(func(p *sim.Proc) {
			if err := tn.Close(p); err != nil {
				t.Error(err)
				return
			}
			_, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
			if !errors.Is(err, offload.ErrTenantClosed) {
				t.Errorf("post-close copy err = %v, want ErrTenantClosed", err)
			}
		})
	})

	t.Run("faulted", func(t *testing.T) {
		r := newRig(t, 1)
		if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{Seed: 24, PageFaultPer4K: 1}); err != nil {
			t.Fatal(err)
		}
		svc := r.service(t)
		tn, err := svc.NewTenant(offload.TenantPolicy(recoveryPolicy(1, 0)))
		if err != nil {
			t.Fatal(err)
		}
		src, dst := tn.Alloc(n), tn.Alloc(n)
		r.run(func(p *sim.Proc) {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			_, err = f.Wait(p, offload.Poll)
			if !errors.Is(err, offload.ErrFaulted) {
				t.Errorf("Wait err = %v, want ErrFaulted", err)
			}
			if errors.Is(err, offload.ErrDeviceFailed) {
				t.Error("a page-fault storm is not a device failure")
			}
		})
		if st := tn.Stats(); st.Retries != 1 {
			t.Fatalf("retries=%d, want exactly RetryMax=1", st.Retries)
		}
	})

	t.Run("device-failed", func(t *testing.T) {
		// One engine so the second submission is still queued when the
		// outage kills the queue.
		r := newRigEngines(t, 1)
		if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{
			Outages: []dsa.Outage{{At: sim.Time(1 * time.Microsecond), Dur: sim.Time(20 * time.Microsecond)}},
		}); err != nil {
			t.Fatal(err)
		}
		svc := r.service(t)
		tn, err := svc.NewTenant(offload.TenantPolicy(recoveryPolicy(0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		src, dst := tn.Alloc(2*n), tn.Alloc(2*n)
		r.run(func(p *sim.Proc) {
			f1, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			f2, err := tn.Copy(p, dst.Addr(n), src.Addr(n), n)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f1.Wait(p, offload.Poll); err != nil {
				t.Errorf("dispatched op: %v (work on the engine drains through an outage)", err)
			}
			_, err = f2.Wait(p, offload.Poll)
			if !errors.Is(err, offload.ErrDeviceFailed) {
				t.Errorf("queued op err = %v, want ErrDeviceFailed", err)
			}
		})
	})

	t.Run("pipeline-stage", func(t *testing.T) {
		r := newRig(t, 1)
		if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{Seed: 25, PageFaultPer4K: 1}); err != nil {
			t.Fatal(err)
		}
		svc := r.service(t)
		tn, err := svc.NewTenant(offload.TenantPolicy(recoveryPolicy(0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		m := int64(32 << 10)
		src, dst := tn.Alloc(m), tn.Alloc(m)
		pl := tn.NewPipeline()
		tmp := pl.Scratch(m)
		s1 := pl.Copy(tmp, offload.At(src.Addr(0)), m)
		pl.Copy(offload.At(dst.Addr(0)), tmp, m, offload.After(s1))
		r.run(func(p *sim.Proc) {
			f, err := pl.Submit(p)
			if err != nil {
				t.Error(err)
				return
			}
			_, err = f.Wait(p, offload.Poll)
			if !errors.Is(err, offload.ErrFaulted) {
				t.Errorf("pipeline err = %v, want ErrFaulted", err)
			}
		})
		if got := pl.FailedStage(); got != 0 {
			t.Fatalf("FailedStage() = %d, want 0 (the first copy faulted, the fence poisoned the rest)", got)
		}
	})
}

// newRigEngines is a single-socket newRig with an explicit engine count,
// for tests that need work to sit queued behind a busy engine.
func newRigEngines(t *testing.T, engines int) *rig {
	t.Helper()
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 2,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
	dev := dsa.New(e, sys, dsa.DefaultConfig("dsa", 0))
	if _, err := dev.AddGroup(dsa.GroupConfig{Engines: engines, WQs: []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}}}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	return &rig{e: e, sys: sys, devs: []*dsa.Device{dev}}
}
