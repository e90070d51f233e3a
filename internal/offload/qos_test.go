package offload_test

import (
	"errors"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// TestPriorityAwareSteering drives the QoS scheduler through every
// partition shape: a reserved express WQ per socket, uniform priorities
// (nothing to reserve), a remote socket with no local device, and a
// single-WQ device. anyPrio/anySocket (-1) relax the assertion.
func TestPriorityAwareSteering(t *testing.T) {
	const (
		anyPrio   = -1
		anySocket = -1
	)
	reserved := []dsa.WQConfig{
		{Mode: dsa.Shared, Size: 8, Priority: 15},
		{Mode: dsa.Shared, Size: 24, Priority: 5},
	}
	uniform := []dsa.WQConfig{
		{Mode: dsa.Shared, Size: 16, Priority: 5},
		{Mode: dsa.Shared, Size: 16, Priority: 5},
	}
	single := []dsa.WQConfig{{Mode: dsa.Shared, Size: 8, Priority: 15}}

	cases := []struct {
		name       string
		sockets    int
		wqcfg      []dsa.WQConfig
		class      offload.QoSClass
		socket     int
		wantPrio   int
		wantSocket int
	}{
		{"latency-sensitive gets the socket-0 express WQ", 2, reserved, offload.LatencySensitive, 0, 15, 0},
		{"latency-sensitive gets the socket-1 express WQ", 2, reserved, offload.LatencySensitive, 1, 15, 1},
		{"bulk steers to the non-reserved WQ", 2, reserved, offload.Bulk, 0, 5, 0},
		{"bulk on a device-less socket falls back across UPI", 2, reserved, offload.Bulk, 5, 5, anySocket},
		{"latency-sensitive on a device-less socket falls back across UPI", 2, reserved, offload.LatencySensitive, 5, 15, anySocket},
		{"uniform priorities: latency-sensitive shares the pool", 1, uniform, offload.LatencySensitive, 0, 5, 0},
		{"uniform priorities: bulk shares the pool", 1, uniform, offload.Bulk, 0, 5, 0},
		{"single WQ serves both classes", 1, single, offload.LatencySensitive, 0, 15, 0},
		{"single WQ serves bulk too (no starvation)", 1, single, offload.Bulk, 0, 15, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.sockets, tc.wqcfg...)
			wqs := r.wqs()
			topo := r.service(t).Topology()
			s := offload.NewPriorityAware()
			for i := 0; i < 8; i++ {
				got := s.Pick(offload.Request{Socket: tc.socket, Class: tc.class, Topo: topo}, wqs)
				if got == nil {
					t.Fatalf("pick %d returned nil", i)
				}
				if tc.wantPrio != anyPrio && got.Priority != tc.wantPrio {
					t.Fatalf("pick %d landed on priority %d, want %d", i, got.Priority, tc.wantPrio)
				}
				if tc.wantSocket != anySocket && got.Dev.Cfg.Socket != tc.wantSocket {
					t.Fatalf("pick %d landed on socket %d, want %d", i, got.Dev.Cfg.Socket, tc.wantSocket)
				}
			}
		})
	}
}

// An all-bulk workload on a QoS rig must leave the reserved WQ untouched:
// the express lane stays empty for a latency-sensitive arrival.
func TestPriorityAwareAllBulkLeavesExpressIdle(t *testing.T) {
	r := newRig(t, 1,
		dsa.WQConfig{Mode: dsa.Shared, Size: 8, Priority: 15},
		dsa.WQConfig{Mode: dsa.Shared, Size: 24, Priority: 5})
	svc := r.service(t, offload.WithScheduler(offload.NewPriorityAware()))
	tn, err := svc.NewTenant() // default class is Bulk
	if err != nil {
		t.Fatal(err)
	}
	if tn.Class() != offload.Bulk {
		t.Fatalf("default tenant class = %v, want bulk", tn.Class())
	}
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
	})
	var express, rest *dsa.WQ
	for _, wq := range r.wqs() {
		if wq.Priority == 15 {
			express = wq
		} else {
			rest = wq
		}
	}
	if express.Submitted() != 0 {
		t.Errorf("bulk traffic occupied the reserved WQ: %d descriptors", express.Submitted())
	}
	if rest.Submitted() != 16 {
		t.Errorf("bulk WQ saw %d descriptors, want 16", rest.Submitted())
	}
}

// admissionRig builds a single-device service whose tenant runs under the
// given admission policy fields.
func admissionRig(t *testing.T, rate float64, burst int, wait bool) (*rig, *offload.Tenant) {
	t.Helper()
	r := newRig(t, 1)
	pol := offload.DefaultPolicy()
	pol.AdmitRate = rate
	pol.AdmitBurst = burst
	pol.AdmitWait = wait
	svc := r.service(t, offload.WithPolicy(pol))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	return r, tn
}

func TestAdmissionZeroRateIsUnlimited(t *testing.T) {
	r, tn := admissionRig(t, 0, 0, false)
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Fatalf("op %d rejected with zero admission rate: %v", i, err)
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Fatal(err)
			}
		}
	})
	if st := tn.Stats(); st.Shed != 0 || st.Delayed != 0 {
		t.Fatalf("zero-rate policy touched the bucket: %+v", st)
	}
}

func TestAdmissionBurstExhaustionSurfacesErrAdmission(t *testing.T) {
	r, tn := admissionRig(t, 1000, 2, false) // 1 token/ms, 2 back-to-back
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware)); err != nil {
				t.Fatalf("burst op %d rejected: %v", i, err)
			}
		}
		_, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		if err == nil {
			t.Fatal("third back-to-back op admitted past a burst of 2")
		}
		if !errors.Is(err, offload.ErrAdmission) {
			t.Fatalf("error %v does not wrap ErrAdmission", err)
		}
		// A token accrues with virtual time: ~1 ms at 1000 ops/s.
		p.Sleep(2 * time.Millisecond)
		if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware)); err != nil {
			t.Fatalf("op after refill interval rejected: %v", err)
		}
	})
	if st := tn.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1 (stats: %+v)", st.Shed, st)
	}
}

func TestAdmissionWaitDelaysInsteadOfShedding(t *testing.T) {
	r, tn := admissionRig(t, 1000, 1, true)
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	r.run(func(p *sim.Proc) {
		if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware)); err != nil {
			t.Fatal(err)
		}
		before := p.Now()
		if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware)); err != nil {
			t.Fatalf("AdmitWait surfaced an error: %v", err)
		}
		if waited := p.Now() - before; waited < 500*time.Microsecond {
			t.Fatalf("second op delayed only %v, want ~1ms token accrual", waited)
		}
	})
	st := tn.Stats()
	if st.Delayed != 1 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want exactly one delayed, none shed", st)
	}
}

// The adaptive threshold (G2 made dynamic): an idle device accepts
// operations below the static 4 KB floor, and a saturated one sheds an
// above-floor operation to the core.
func TestAdaptiveThresholdTracksDevicePressure(t *testing.T) {
	r := newRig(t, 1)
	pol := offload.DefaultPolicy()
	pol.AdaptiveThreshold = true
	svc := r.service(t, offload.WithPolicy(pol))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	small := int64(3 << 10) // between base/2 and base
	mid := int64(16 << 10)  // above base, below the saturated threshold
	big := int64(1 << 20)
	src, dst := tn.Alloc(big), tn.Alloc(big)
	r.run(func(p *sim.Proc) {
		if eff := tn.EffectiveThreshold(); eff >= 4096 {
			t.Errorf("idle effective threshold = %d, want below the 4096 base", eff)
		}
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), small)
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := f.Wait(p, offload.Poll); !res.Hardware {
			t.Error("idle device should accept a 3KB Auto op on hardware (lowered threshold)")
		}

		// Saturate the 32-entry WQ with megabyte copies.
		var futs []*offload.Future
		for i := 0; i < 30; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), big, offload.On(offload.Hardware))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		if eff := tn.EffectiveThreshold(); eff <= 4096 {
			t.Errorf("saturated effective threshold = %d, want above the 4096 base", eff)
		}
		f2, err := tn.Copy(p, dst.Addr(0), src.Addr(0), mid)
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := f2.Wait(p, offload.Poll); res.Hardware {
			t.Error("16KB Auto op should shed to the core while the WQ is saturated")
		}
		for _, f := range futs {
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}

		// Recovery: once the backlog drains, the latency history alone
		// must not pin the threshold high — the device is idle again and
		// small operations offload again.
		if eff := tn.EffectiveThreshold(); eff > 4096 {
			t.Errorf("drained effective threshold = %d, want back at or below the 4096 base", eff)
		}
		f3, err := tn.Copy(p, dst.Addr(0), src.Addr(0), mid)
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := f3.Wait(p, offload.Poll); !res.Hardware {
			t.Error("16KB Auto op should offload again after the backlog drains")
		}
	})
	st := tn.Stats()
	if st.SWOps == 0 {
		t.Fatalf("no operation was shed to the core: %+v", st)
	}
}

// occupy queues descriptors on a WQ without running the engine, building
// instantaneous occupancy the pressure estimators must see.
func occupy(t *testing.T, wq *dsa.WQ, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := wq.Submit(dsa.Descriptor{Op: dsa.OpNop}); err != nil {
			t.Fatal(err)
		}
	}
}

// Per-socket pressure must diverge under uneven load: with only the
// socket-0 device backlogged, SocketPressure(0) sits above the aggregate
// Pressure(), which in turn sits above the idle socket's estimate.
func TestSocketPressureDivergesUnderSkew(t *testing.T) {
	r := newRig(t, 2)
	svc := r.service(t)
	occupy(t, r.devs[0].WQs()[0], 16) // half-fill socket 0's 32-entry WQ
	p0 := svc.SocketPressure(0)
	p1 := svc.SocketPressure(1)
	agg := svc.Pressure()
	if !(p0 > agg && agg > p1) {
		t.Fatalf("skewed pressure not ordered: socket0 %.3f, aggregate %.3f, socket1 %.3f", p0, agg, p1)
	}
	if p1 != 0 {
		t.Fatalf("idle socket pressure = %.3f, want 0", p1)
	}
}

// Under uniform load every socket's estimate converges to the aggregate.
func TestSocketPressureConvergesUnderUniformLoad(t *testing.T) {
	r := newRig(t, 2)
	svc := r.service(t)
	occupy(t, r.devs[0].WQs()[0], 12)
	occupy(t, r.devs[1].WQs()[0], 12)
	p0 := svc.SocketPressure(0)
	p1 := svc.SocketPressure(1)
	agg := svc.Pressure()
	if p0 != p1 || p0 != agg {
		t.Fatalf("uniform pressure diverged: socket0 %.3f, socket1 %.3f, aggregate %.3f", p0, p1, agg)
	}
	if p0 == 0 {
		t.Fatal("uniform backlog reported zero pressure")
	}
	// A socket with no local device reports the aggregate: its traffic
	// falls back to the full WQ set.
	if got := svc.SocketPressure(7); got != agg {
		t.Fatalf("device-less socket pressure = %.3f, want aggregate %.3f", got, agg)
	}
}
