package offload_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// planeRig builds a service under sched plus one plane-backed tenant over
// the rig's WQs. wqcfg defaults to the rig's (one 32-entry dedicated
// WQ/device).
func planeRig(t *testing.T, sched offload.Scheduler, sockets, lanes int, class offload.QoSClass, wqcfg ...dsa.WQConfig) (*rig, *offload.Tenant, *offload.Plane) {
	t.Helper()
	r := newRig(t, sockets, wqcfg...)
	svc := r.service(t, offload.WithScheduler(sched))
	tn, err := svc.NewTenant(offload.WithClass(class))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tn.NewPlane(lanes)
	if err != nil {
		t.Fatal(err)
	}
	return r, tn, pl
}

func TestPlaneOnePerWQSet(t *testing.T) {
	r, tn, _ := planeRig(t, offload.NewRoundRobin(), 1, 2, offload.Bulk)
	if _, err := tn.NewPlane(2); err == nil {
		t.Fatal("second plane on one tenant did not fail")
	}
	svc2, err := offload.NewService(r.e, r.sys, r.wqs())
	if err != nil {
		t.Fatal(err)
	}
	tn2, err := svc2.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn2.NewPlane(2); err == nil {
		t.Fatal("plane over WQs another plane drains did not fail")
	}
	if _, err := tn2.NewPlane(0); err == nil {
		t.Fatal("zero-lane plane did not fail")
	}
}

// TestPlaneQoSCandidates checks the lanes honor the express/rest
// reservation of the PriorityAware scheduler they ask: a latency-sensitive
// tenant's submissions land only on the top-priority WQ, a bulk
// tenant's only on the rest.
func TestPlaneQoSCandidates(t *testing.T) {
	cfg := []dsa.WQConfig{
		{Mode: dsa.Shared, Size: 32, Priority: 10},
		{Mode: dsa.Shared, Size: 32, Priority: 1},
	}
	for _, tc := range []struct {
		class   offload.QoSClass
		wantPri int
	}{
		{offload.LatencySensitive, 10},
		{offload.Bulk, 1},
	} {
		r, tn, pl := planeRig(t, offload.NewPriorityAware(), 1, 2, tc.class, cfg...)
		src, dst := tn.Alloc(4096), tn.Alloc(4096)
		d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
		r.run(func(p *sim.Proc) {
			lane := pl.Lane(0)
			for i := 0; i < 8; i++ {
				if err := lane.Submit(p, d); err != nil {
					t.Error(err)
					return
				}
			}
			pl.WaitInflight(p, 0)
		})
		for _, wq := range pl.WQs() {
			got := wq.Submitted()
			if wq.Priority == tc.wantPri && got != 8 {
				t.Errorf("%v: priority-%d WQ accepted %d descriptors, want 8", tc.class, wq.Priority, got)
			}
			if wq.Priority != tc.wantPri && got != 0 {
				t.Errorf("%v: priority-%d WQ accepted %d descriptors, want 0", tc.class, wq.Priority, got)
			}
		}
	}
}

// TestPlaneAdmissionIsTenantBucket checks every lane admits through the
// tenant's one bucket, the one its Futures draw: a single lane spends the
// whole burst, after which a sibling lane and a hardware Copy on the same
// tenant are both shed, and each submission counts once in Stats.
func TestPlaneAdmissionIsTenantBucket(t *testing.T) {
	r, tn, pl := planeRig(t, offload.NewRoundRobin(), 1, 4, offload.Bulk)
	pol := tn.Policy()
	pol.AdmitRate = 1000 // ~1 token/ms: nothing re-accrues within the test
	pol.AdmitBurst = 8   // twice the lane count
	tn.SetPolicy(pol)
	src, dst := tn.Alloc(4096), tn.Alloc(4096)
	d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
	r.run(func(p *sim.Proc) {
		lane := pl.Lane(0)
		for i := 0; i < pol.AdmitBurst; i++ {
			if err := lane.Submit(p, d); err != nil {
				t.Errorf("lane 0 submission %d of the tenant burst shed: %v", i, err)
				return
			}
		}
		if err := pl.Lane(1).Submit(p, d); !errors.Is(err, offload.ErrAdmission) {
			t.Errorf("sibling lane after the burst: err = %v, want ErrAdmission", err)
		}
		if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 4096, offload.On(offload.Hardware)); !errors.Is(err, offload.ErrAdmission) {
			t.Errorf("hardware Copy after the lane spent the burst: err = %v, want ErrAdmission", err)
		}
		pl.WaitInflight(p, 0)
	})
	if s := tn.Stats(); s.HWOps != int64(pol.AdmitBurst) || s.Shed != 2 {
		t.Errorf("stats = %d admitted / %d shed, want %d/2", s.HWOps, s.Shed, pol.AdmitBurst)
	}
}

// TestPlaneSimSubmitCompletes drives the full simulation path: N procs
// each own a lane, submit copies through it, and barrier on
// WaitInflight(0); every descriptor must reach a WQ, complete, and be
// accounted, with the drain exiting cleanly (Engine.Run returning).
func TestPlaneSimSubmitCompletes(t *testing.T) {
	const lanes, perLane = 8, 25
	r, tn, pl := planeRig(t, offload.NewRoundRobin(), 2, lanes, offload.Bulk,
		dsa.WQConfig{Mode: dsa.Shared, Size: 32})
	src := tn.Alloc(4096)
	dst := tn.Alloc(4096)
	d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
	for i := 0; i < lanes; i++ {
		lane := pl.Lane(i)
		r.e.Go("submitter", func(p *sim.Proc) {
			for j := 0; j < perLane; j++ {
				if err := lane.Submit(p, d); err != nil {
					t.Error(err)
					return
				}
			}
			pl.WaitInflight(p, 0)
		})
	}
	r.e.Run()
	if pl.Pending() != 0 || pl.Inflight() != 0 {
		t.Fatalf("after run: pending %d inflight %d, want 0/0", pl.Pending(), pl.Inflight())
	}
	var submitted int64
	for _, wq := range pl.WQs() {
		submitted += wq.Submitted()
	}
	if submitted != lanes*perLane {
		t.Errorf("WQs accepted %d descriptors, want %d", submitted, lanes*perLane)
	}
	if s := tn.Stats(); s.HWOps != lanes*perLane || s.HWBytes != lanes*perLane*4096 {
		t.Errorf("stats = %d ops / %d bytes, want %d / %d",
			s.HWOps, s.HWBytes, lanes*perLane, lanes*perLane*4096)
	}
}

// A warmed plane operation — one SubmitStamped on a one-lane plane,
// drained with WaitInflight — allocates nothing. The drain is an engine
// callback whose scratch and callbacks come from the plane, the rings are
// sized up front, and the device recycles each hooked Completion once its
// hook has run. The same holds when a data-aware scheduler routes the
// lane to the copy's data home on the other socket.
func TestPlaneSubmitAllocBudget(t *testing.T) {
	const budget = 0
	for _, dataAware := range []bool{false, true} {
		r := newRig(t, 2)
		var opts []offload.ServiceOption
		if dataAware {
			opts = append(opts, offload.WithScheduler(offload.NewPlacementQoS()))
		}
		tn, err := r.service(t, opts...).NewTenant(offload.WithClass(offload.Bulk))
		if err != nil {
			t.Fatal(err)
		}
		pl, err := tn.NewPlane(1)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := tn.AllocOn(1, 32<<10), tn.AllocOn(1, 32<<10)
		d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 32 << 10}
		var allocs float64
		r.e.Go("plane", func(p *sim.Proc) {
			lane := pl.Lane(0)
			op := func() {
				if err := lane.SubmitStamped(p, d, p.Now()); err != nil {
					t.Error(err)
					return
				}
				pl.WaitInflight(p, 0)
			}
			for i := 0; i < 64; i++ {
				op()
			}
			allocs = testing.AllocsPerRun(200, op)
		})
		r.e.Run()
		if allocs > budget {
			t.Errorf("data-aware %v: plane op allocated %.2f times per op, budget %d", dataAware, allocs, budget)
		}
		// The default round-robin reaches socket 0 too; the data-aware
		// scheduler sends every copy to its data home.
		want := 0
		if dataAware {
			want = 1
		}
		if pl.WQs()[want].Submitted() == 0 {
			t.Errorf("data-aware %v: the socket-1 copies never reached socket %d", dataAware, want)
		}
	}
}

// acceptedBy returns the index among wqs of the one WQ whose accepted
// count moved since before, and -1 when none or more than one did.
func acceptedBy(wqs []*dsa.WQ, before []int64) int {
	got := -1
	for i, wq := range wqs {
		if wq.Submitted() != before[i] {
			if got >= 0 {
				return -1
			}
			got = i
		}
	}
	return got
}

// submittedBy snapshots each WQ's accepted count.
func submittedBy(wqs []*dsa.WQ) []int64 {
	n := make([]int64, len(wqs))
	for i, wq := range wqs {
		n[i] = wq.Submitted()
	}
	return n
}

// submitOne runs one copy through a lane of pl (or, with pl nil, as a
// hardware Future of tn), waits for it, and returns the index among wqs
// of the WQ that accepted it.
func submitOne(t *testing.T, p *sim.Proc, tn *offload.Tenant, pl *offload.Plane, wqs []*dsa.WQ, d dsa.Descriptor) int {
	t.Helper()
	before := submittedBy(wqs)
	if pl != nil {
		if err := pl.Lane(0).Submit(p, d); err != nil {
			t.Fatal(err)
		}
		pl.WaitInflight(p, 0)
	} else {
		f, err := tn.Copy(p, d.Dst, d.Src, d.Size, offload.On(offload.Hardware))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Fatal(err)
		}
	}
	return acceptedBy(wqs, before)
}

// Every hardware submission has one router. Under each built-in
// scheduler, a run of copies through a lane and the same run as Futures,
// each on a fresh rig, land on the same WQs in the same order. The copies
// are homed on socket 1 and the tenant sits on socket 0, so tenant-socket
// and data-home schedulers route them apart, and each device has an
// express and a bulk WQ, so the QoS schedulers split the classes.
func TestPlaneFollowsScheduler(t *testing.T) {
	cfg := []dsa.WQConfig{
		{Mode: dsa.Shared, Size: 32, Priority: 10},
		{Mode: dsa.Shared, Size: 32, Priority: 1},
	}
	scheds := []func() offload.Scheduler{
		func() offload.Scheduler { return offload.NewRoundRobin() },
		func() offload.Scheduler { return offload.NewNUMALocal() },
		func() offload.Scheduler { return offload.NewLeastLoaded() },
		func() offload.Scheduler { return offload.NewPriorityAware() },
		func() offload.Scheduler { return offload.NewPlacement() },
		func() offload.Scheduler { return offload.NewPlacementQoS() },
	}
	// route runs the copies through lanes or Futures on a fresh rig and
	// returns the index of the WQ that accepted each.
	route := func(t *testing.T, sched offload.Scheduler, class offload.QoSClass, lane bool) []int {
		r := newRig(t, 2, cfg...)
		tn, err := r.service(t, offload.WithScheduler(sched)).NewTenant(offload.OnSocket(0), offload.WithClass(class))
		if err != nil {
			t.Fatal(err)
		}
		var pl *offload.Plane
		if lane {
			if pl, err = tn.NewPlane(1); err != nil {
				t.Fatal(err)
			}
		}
		src, dst := tn.AllocOn(1, 4096), tn.AllocOn(1, 4096)
		d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
		var got []int
		r.run(func(p *sim.Proc) {
			for i := 0; i < 6; i++ {
				got = append(got, submitOne(t, p, tn, pl, r.wqs(), d))
			}
		})
		return got
	}
	for _, mk := range scheds {
		for _, class := range []offload.QoSClass{offload.Bulk, offload.LatencySensitive} {
			name := mk().Name()
			future, lane := route(t, mk(), class, false), route(t, mk(), class, true)
			if fmt.Sprint(future) != fmt.Sprint(lane) {
				t.Errorf("%s, %v: Futures landed on WQs %v, lane submissions on %v", name, class, future, lane)
			}
		}
	}
}

// A class whose partition is dead detours without taking the other
// class's reservation while it can. With socket 0's bulk WQ disabled, a
// bulk copy from socket 0, through a Future or a lane alike, takes
// socket 1's bulk WQ, not an express WQ; with socket 0's express WQ
// disabled, a latency-sensitive copy still takes its own socket's bulk
// WQ. The rule is pickExpress's, so it holds under both QoS schedulers.
func TestBulkDetourKeepsExpressLane(t *testing.T) {
	const expressWQ, bulkWQ = 0, 1
	cfg := []dsa.WQConfig{
		{Mode: dsa.Shared, Size: 32, Priority: 10},
		{Mode: dsa.Shared, Size: 32, Priority: 1},
	}
	// land runs one socket-0 copy from a socket-0 tenant of class, with
	// WQ dead of device 0 disabled, and returns the device and WQ index
	// that accepted it.
	land := func(t *testing.T, sched offload.Scheduler, class offload.QoSClass, dead int, lane bool) (dev, wq int) {
		t.Helper()
		r := newRig(t, 2, cfg...)
		if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{
			WQDisables: []dsa.WQDisable{{WQ: dead, At: 0, Dur: sim.Time(time.Millisecond)}},
		}); err != nil {
			t.Fatal(err)
		}
		tn, err := r.service(t, offload.WithScheduler(sched)).NewTenant(offload.OnSocket(0), offload.WithClass(class))
		if err != nil {
			t.Fatal(err)
		}
		var pl *offload.Plane
		if lane {
			if pl, err = tn.NewPlane(1); err != nil {
				t.Fatal(err)
			}
		}
		src, dst := tn.AllocOn(0, 4096), tn.AllocOn(0, 4096)
		d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
		i := -1
		r.run(func(p *sim.Proc) {
			p.Sleep(sim.Time(time.Microsecond)) // inside the disable window
			i = submitOne(t, p, tn, pl, r.wqs(), d)
		})
		if i < 0 {
			t.Fatal("no single WQ accepted the copy")
		}
		return i / len(cfg), i % len(cfg)
	}
	for _, mk := range []func() offload.Scheduler{
		func() offload.Scheduler { return offload.NewPriorityAware() },
		func() offload.Scheduler { return offload.NewPlacementQoS() },
	} {
		for _, lane := range []bool{false, true} {
			name := mk().Name()
			if dev, wq := land(t, mk(), offload.Bulk, bulkWQ, lane); dev != 1 || wq != bulkWQ {
				t.Errorf("%s, lane %v: bulk copy with socket 0's bulk WQ dead landed on device %d WQ %d, want socket 1's bulk WQ", name, lane, dev, wq)
			}
			if dev, wq := land(t, mk(), offload.LatencySensitive, expressWQ, lane); dev != 0 || wq != bulkWQ {
				t.Errorf("%s, lane %v: latency-sensitive copy with socket 0's express WQ dead landed on device %d WQ %d, want socket 0's bulk WQ", name, lane, dev, wq)
			}
		}
	}
}
