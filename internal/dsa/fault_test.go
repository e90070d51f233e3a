package dsa

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// faultRun drives n sequential copies through a rig whose injector is
// seeded with seed and returns each completion's (status, bytes) pair.
func faultRun(t *testing.T, seed uint64, n int) []CompletionRecord {
	t.Helper()
	r := newRig(t)
	if _, err := r.dev.InjectFaults(FaultConfig{Seed: seed, PageFaultPer4K: 0.02}); err != nil {
		t.Fatal(err)
	}
	size := int64(16 * mem.Page4K)
	src := r.alloc(size)
	dst := r.alloc(size)
	wq := r.dev.WQs()[0]
	cl := NewClient(wq, nil)
	recs := make([]CompletionRecord, 0, n)
	r.e.Go("load", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			comp, err := cl.RunSync(p, Descriptor{
				Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: size,
			}, Poll)
			if err != nil {
				t.Errorf("RunSync %d: %v", i, err)
				return
			}
			recs = append(recs, comp.Record())
		}
	})
	r.e.Run()
	return recs
}

// The injector's whole fault schedule is a function of its seed: the same
// seed reproduces every (status, offset) bit-for-bit, a different seed
// produces a different schedule. This is what lets the chaos scenarios
// gate CI on numbers measured under faults.
func TestInjectedFaultDeterminism(t *testing.T) {
	const n = 200
	a := faultRun(t, 7, n)
	b := faultRun(t, 7, n)
	c := faultRun(t, 8, n)
	faults := 0
	for i := range a {
		if a[i].Status != b[i].Status || a[i].BytesCompleted != b[i].BytesCompleted {
			t.Fatalf("op %d diverged under one seed: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Status == StatusPageFault {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no injected faults in 200 16-page copies at p=0.02/page")
	}
	same := true
	for i := range a {
		if a[i].Status != c[i].Status || a[i].BytesCompleted != c[i].BytesCompleted {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical fault schedules")
	}
	t.Logf("%d/%d ops faulted", faults, n)
}

// An injected fault resolves exactly like a real one: with Block-On-Fault
// the engine stalls for the OS round trip and the op still succeeds
// (slower than fault-free); without it the device reports a partial
// completion at a page boundary with the completed prefix applied.
func TestInjectedFaultBlockOnFaultVsPartial(t *testing.T) {
	size := int64(8 * mem.Page4K)
	run := func(inject bool, flags Flags) (CompletionRecord, sim.Time, []byte, []byte) {
		r := newRig(t)
		if inject {
			if _, err := r.dev.InjectFaults(FaultConfig{Seed: 3, PageFaultPer4K: 1}); err != nil {
				t.Fatal(err)
			}
		}
		src := r.alloc(size)
		dst := r.alloc(size)
		sim.NewRand(9).Bytes(src.Bytes())
		cl := NewClient(r.dev.WQs()[0], nil)
		var rec CompletionRecord
		var lat sim.Time
		r.e.Go("op", func(p *sim.Proc) {
			comp, err := cl.RunSync(p, Descriptor{
				Op: OpMemmove, PASID: 1, Flags: flags, Src: src.Addr(0), Dst: dst.Addr(0), Size: size,
			}, Poll)
			if err != nil {
				t.Error(err)
				return
			}
			rec, lat = comp.Record(), comp.Latency()
		})
		r.e.Run()
		return rec, lat, src.Bytes(), dst.Bytes()
	}

	clean, cleanLat, _, _ := run(false, 0)
	if clean.Status != StatusSuccess {
		t.Fatalf("fault-free copy = %+v", clean)
	}

	bof, bofLat, bsrc, bdst := run(true, FlagBlockOnFault)
	if bof.Status != StatusSuccess {
		t.Fatalf("block-on-fault copy = %+v", bof)
	}
	if !bytes.Equal(bdst, bsrc) {
		t.Fatal("block-on-fault copy incomplete")
	}
	if bofLat <= cleanLat {
		t.Fatalf("block-on-fault latency %v not above fault-free %v (no OS round trip charged)", bofLat, cleanLat)
	}

	part, _, psrc, pdst := run(true, 0)
	if part.Status != StatusPageFault {
		t.Fatalf("partial-mode copy = %+v, want page_fault", part)
	}
	if part.BytesCompleted < 0 || part.BytesCompleted >= size || part.BytesCompleted%mem.Page4K != 0 {
		t.Fatalf("BytesCompleted = %d, want a page-aligned prefix below %d", part.BytesCompleted, size)
	}
	if n := part.BytesCompleted; n > 0 && !bytes.Equal(pdst[:n], psrc[:n]) {
		t.Fatal("completed prefix not applied")
	}
}

// A WQ disable window fails queued-but-undispatched descriptors with
// StatusWQError, rejects submissions with ErrWQDisabled while it lasts,
// and lets work already on an engine drain; the queue accepts again after
// the window.
func TestWQDisableWindow(t *testing.T) {
	r := newRig(t, GroupConfig{Engines: 1, WQs: []WQConfig{{Mode: Dedicated, Size: 32}}})
	if _, err := r.dev.InjectFaults(FaultConfig{WQDisables: []WQDisable{
		{WQ: 0, At: sim.Time(2 * time.Microsecond), Dur: sim.Time(10 * time.Microsecond)},
	}}); err != nil {
		t.Fatal(err)
	}
	size := int64(256 << 10)
	src := r.alloc(6 * size)
	dst := r.alloc(6 * size)
	wq := r.dev.WQs()[0]
	r.e.Go("load", func(p *sim.Proc) {
		comps := make([]*Completion, 6)
		for i := range comps {
			c, err := wq.Submit(Descriptor{
				Op: OpMemmove, PASID: 1,
				Src: src.Addr(int64(i) * size), Dst: dst.Addr(int64(i) * size), Size: size,
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			comps[i] = c
		}
		p.SleepUntil(sim.Time(3 * time.Microsecond)) // inside the window
		if wq.Healthy() {
			t.Error("WQ healthy inside its disable window")
		}
		if _, err := wq.Submit(Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 64}); !errors.Is(err, ErrWQDisabled) {
			t.Errorf("submit in window: %v, want ErrWQDisabled", err)
		}
		failed := 0
		for i, c := range comps {
			c.Wait(p)
			rec := c.Record()
			switch rec.Status {
			case StatusSuccess:
			case StatusWQError:
				failed++
				if !errors.Is(rec.Err, ErrWQDisabled) {
					t.Errorf("op %d record err = %v, want ErrWQDisabled", i, rec.Err)
				}
			default:
				t.Errorf("op %d = %+v", i, rec)
			}
		}
		// The op on the engine at disable time drains; the queued rest die.
		if failed == 0 || failed == len(comps) {
			t.Errorf("failed = %d of %d, want some queued failures and some drained successes", failed, len(comps))
		}
		p.SleepUntil(sim.Time(13 * time.Microsecond)) // past the window
		if !wq.Healthy() {
			t.Error("WQ still unhealthy after its disable window")
		}
		c, err := wq.Submit(Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 64})
		if err != nil {
			t.Errorf("submit after heal: %v", err)
			return
		}
		c.Wait(p)
		if c.Record().Status != StatusSuccess {
			t.Errorf("post-heal op = %+v", c.Record())
		}
	})
	r.e.Run()
	if got := r.dev.Stats().WQDisables; got != 1 {
		t.Fatalf("WQDisables = %d, want 1", got)
	}
}

// A device outage fails every WQ's queued work with StatusDeviceOffline,
// rejects submissions with ErrDeviceOffline, and heals at the window end.
func TestDeviceOutageWindow(t *testing.T) {
	r := newRig(t, GroupConfig{Engines: 1, WQs: []WQConfig{{Mode: Dedicated, Size: 32}}})
	if _, err := r.dev.InjectFaults(FaultConfig{Outages: []Outage{
		{At: sim.Time(2 * time.Microsecond), Dur: sim.Time(10 * time.Microsecond)},
	}}); err != nil {
		t.Fatal(err)
	}
	size := int64(256 << 10)
	src := r.alloc(4 * size)
	dst := r.alloc(4 * size)
	wq := r.dev.WQs()[0]
	r.e.Go("load", func(p *sim.Proc) {
		comps := make([]*Completion, 4)
		for i := range comps {
			c, err := wq.Submit(Descriptor{
				Op: OpMemmove, PASID: 1,
				Src: src.Addr(int64(i) * size), Dst: dst.Addr(int64(i) * size), Size: size,
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			comps[i] = c
		}
		p.SleepUntil(sim.Time(3 * time.Microsecond))
		if !r.dev.Offline() || wq.Healthy() {
			t.Error("device not offline inside its outage window")
		}
		if _, err := wq.Submit(Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 64}); !errors.Is(err, ErrDeviceOffline) {
			t.Errorf("submit in outage: %v, want ErrDeviceOffline", err)
		}
		offline := 0
		for i, c := range comps {
			c.Wait(p)
			rec := c.Record()
			switch rec.Status {
			case StatusSuccess:
			case StatusDeviceOffline:
				offline++
				if !errors.Is(rec.Err, ErrDeviceOffline) {
					t.Errorf("op %d record err = %v, want ErrDeviceOffline", i, rec.Err)
				}
			default:
				t.Errorf("op %d = %+v", i, rec)
			}
		}
		if offline == 0 {
			t.Error("no queued op completed with device_offline")
		}
		p.SleepUntil(sim.Time(13 * time.Microsecond))
		if r.dev.Offline() {
			t.Error("device still offline after its outage window")
		}
		c, err := wq.Submit(Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 64})
		if err != nil {
			t.Errorf("submit after heal: %v", err)
			return
		}
		c.Wait(p)
		if c.Record().Status != StatusSuccess {
			t.Errorf("post-heal op = %+v", c.Record())
		}
	})
	r.e.Run()
	if got := r.dev.Stats().Outages; got != 1 {
		t.Fatalf("Outages = %d, want 1", got)
	}
}

// A faulting batch child fails the parent with StatusBatchFail, records
// the per-child outcomes, and fence-poisons everything ordered behind the
// fault: the fenced child never issues and keeps its zero-value
// StatusNone record.
func TestBatchChildFaultPoisonsFence(t *testing.T) {
	r := newRig(t)
	src := r.alloc(3 * mem.Page4K)
	okDst := r.alloc(mem.Page4K)
	lazyDst := r.alloc(mem.Page4K, mem.Lazy())
	tailDst := r.alloc(mem.Page4K)
	sim.NewRand(13).Bytes(src.Bytes())

	subs := []Descriptor{
		{Op: OpMemmove, Src: src.Addr(0), Dst: okDst.Addr(0), Size: mem.Page4K},
		{Op: OpMemmove, Flags: FlagFence, Src: src.Addr(mem.Page4K), Dst: lazyDst.Addr(0), Size: mem.Page4K},
		{Op: OpMemmove, Flags: FlagFence, Src: src.Addr(2 * mem.Page4K), Dst: tailDst.Addr(0), Size: mem.Page4K},
	}
	rec := r.runSync(t, Descriptor{Op: OpBatch, PASID: 1, Descs: subs})
	if rec.Status != StatusBatchFail {
		t.Fatalf("batch = %+v, want batch_fail", rec)
	}
	if rec.Result != 1 {
		t.Fatalf("succeeded = %d, want 1 (the pre-fence child)", rec.Result)
	}
	if len(rec.Children) != 3 {
		t.Fatalf("children records = %d, want 3", len(rec.Children))
	}
	if rec.Children[0].Status != StatusSuccess {
		t.Errorf("child 0 = %+v, want success", rec.Children[0])
	}
	if rec.Children[1].Status != StatusPageFault {
		t.Errorf("child 1 = %+v, want page_fault", rec.Children[1])
	}
	if rec.Children[2].Status != StatusNone {
		t.Errorf("child 2 = %+v, want the fence-poisoned zero record", rec.Children[2])
	}
}

// A WQ's ready hook fires when an entry leaves the queue and when the
// queue's health flips either way, and sees the occupancy and health the
// event left behind.
func TestWQReadyHook(t *testing.T) {
	r := newRig(t)
	wq := r.dev.WQs()[0]
	us := sim.Time(time.Microsecond)
	if _, err := r.dev.InjectFaults(FaultConfig{
		WQDisables: []WQDisable{{WQ: 0, At: 10 * us, Dur: 5 * us}},
		Outages:    []Outage{{At: 30 * us, Dur: 5 * us}},
	}); err != nil {
		t.Fatal(err)
	}
	type call struct {
		at      sim.Time
		occ     int
		healthy bool
	}
	var got []call
	wq.SetOnReady(func() { got = append(got, call{r.e.Now(), wq.Occupancy(), wq.Healthy()}) })
	src, dst := r.alloc(4096), r.alloc(4096)
	if _, err := wq.Submit(Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}); err != nil {
		t.Fatal(err)
	}
	r.e.Run()
	want := []call{
		{r.dev.Cfg.Timing.PortalHop / 2, 0, true}, // dispatched to an engine
		{10 * us, 0, false},                       // disable window opens
		{15 * us, 0, true},                        // and closes
		{30 * us, 0, false},                       // outage begins
		{35 * us, 0, true},                        // and ends
	}
	if len(got) != len(want) {
		t.Fatalf("ready hook calls %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ready hook calls %v, want %v", got, want)
		}
	}
}
