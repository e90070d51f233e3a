package offload

import (
	"sort"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// ringRig is a plane over per-socket devices, for in-package tests that
// drive the plane's rings by hand.
type ringRig struct {
	e    *sim.Engine
	devs []*dsa.Device
	svc  *Service
	tn   *Tenant
	pl   *Plane
	d    dsa.Descriptor // a 4 KB copy between tenant buffers
}

// newRingRig builds a ringRig with one shared WQ of the given size per
// socket.
func newRingRig(t *testing.T, sockets, size, lanes int, faults ...dsa.FaultConfig) *ringRig {
	t.Helper()
	return newWQRig(t, sockets, lanes, []dsa.WQConfig{{Mode: dsa.Shared, Size: size}}, faults...)
}

// newWQRig builds a ringRig with the WQs cfg on every socket's device,
// under the Placement scheduler: it reads WQ load, ring backlog included,
// and keeps the rig's copies, homed on the tenant's socket, on socket 0's
// rings.
func newWQRig(t *testing.T, sockets, lanes int, cfg []dsa.WQConfig, faults ...dsa.FaultConfig) *ringRig {
	t.Helper()
	return newSchedRig(t, NewPlacement(), sockets, lanes, cfg, faults...)
}

// newSchedRig is newWQRig under the service scheduler sched (nil: the
// default).
func newSchedRig(t *testing.T, sched Scheduler, sockets, lanes int, cfg []dsa.WQConfig, faults ...dsa.FaultConfig) *ringRig {
	t.Helper()
	e := sim.New()
	var nodes []mem.NodeConfig
	for s := 0; s < sockets; s++ {
		nodes = append(nodes, mem.NodeConfig{Socket: s, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75})
	}
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets:  sockets,
		LLC:      mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:   70 * time.Nanosecond,
		UPIGBps:  62,
		NodeDefs: nodes,
	})
	r := &ringRig{e: e}
	var wqs []*dsa.WQ
	for s := 0; s < sockets; s++ {
		dev := dsa.New(e, sys, dsa.DefaultConfig("dsa", s))
		if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: cfg}); err != nil {
			t.Fatal(err)
		}
		if err := dev.Enable(); err != nil {
			t.Fatal(err)
		}
		if s < len(faults) {
			if _, err := dev.InjectFaults(faults[s]); err != nil {
				t.Fatal(err)
			}
		}
		r.devs = append(r.devs, dev)
		wqs = append(wqs, dev.WQs()...)
	}
	var opts []ServiceOption
	if sched != nil {
		opts = append(opts, WithScheduler(sched))
	}
	var err error
	if r.svc, err = NewService(e, sys, wqs, opts...); err != nil {
		t.Fatal(err)
	}
	if r.tn, err = r.svc.NewTenant(WithClass(Bulk)); err != nil {
		t.Fatal(err)
	}
	if r.pl, err = r.tn.NewPlane(lanes); err != nil {
		t.Fatal(err)
	}
	src, dst := r.tn.Alloc(4096), r.tn.Alloc(4096)
	r.d = dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
	return r
}

// push queues d the way a lane's Submit does — on the ring of the
// scheduler's pick, counted as pending — but charges no virtual time and starts
// no drain, so the entry stays put until the test pops it or starts the
// drain. The rigs set no admission rate. It reports false when the
// picked ring is full.
func (r *ringRig) push(d dsa.Descriptor) bool {
	pl := r.pl
	d.PASID = r.tn.AS.PASID
	d.Flags |= r.tn.policy.Flags
	if !pl.rings[pl.pick(&d)].TryPush(d, stampTag(r.e.Now())) {
		return false
	}
	r.tn.stats.HWOps++
	r.tn.stats.HWBytes += d.Size
	pl.pending++
	return true
}

// fill pushes submissions into ring 0 until it is full.
func (r *ringRig) fill(t *testing.T) {
	t.Helper()
	ring := r.pl.rings[0]
	for ring.Len() < ring.Cap() {
		if !r.push(r.d) {
			t.Fatal("push found the ring full")
		}
	}
}

// gridAfter is the first instant of spin's poll grid (spin + k·gap,
// k ≥ 1) at or after t.
func gridAfter(spin, gap, t sim.Time) sim.Time {
	k := (t - spin + gap - 1) / gap
	if k < 1 {
		k = 1
	}
	return spin + k*gap
}

// A lane whose ring stays full while the drain is stalled schedules no
// event until the drain pops, where a poll every PollGap would schedule
// one per gap; its push then lands on the first instant of its poll grid
// at or after the pop.
func TestRingSpaceStalledDrainSchedulesNoPolls(t *testing.T) {
	r := newRingRig(t, 1, 8, 1)
	r.fill(t)
	gap := r.pl.wqs[0].Dev.Cfg.Timing.PollGap
	const stall = sim.Time(time.Millisecond + 37)
	var spin, pushedAt sim.Time
	var before, after int64
	r.e.Go("lane", func(p *sim.Proc) {
		if err := r.pl.Lane(0).Submit(p, r.d); err != nil {
			t.Error(err)
		}
		pushedAt = p.Now()
	})
	r.e.At(sim.Time(time.Microsecond), func() {
		spin, before = r.pl.Lane(0).retryAt, r.e.Scheduled()
	})
	r.e.Go("drain starter", func(p *sim.Proc) {
		p.SleepUntil(stall)
		after = r.e.Scheduled()
		r.pl.WaitInflight(p, 0)
	})
	r.e.Run()
	// The stall window schedules nothing; the parent's poll loop
	// scheduled about stall/PollGap = 5000 events here.
	if n := after - before; n > 0 {
		t.Errorf("blocked lane scheduled %d events over a %v drain stall, want 0", n, stall-sim.Time(time.Microsecond))
	}
	if want := gridAfter(spin, gap, stall); pushedAt != want {
		t.Errorf("push landed at %v, want the first grid point %v at or after the pop at %v (first attempt %v)", pushedAt, want, stall, spin)
	}
	if r.pl.Pending() != 0 || r.pl.Inflight() != 0 {
		t.Errorf("after run: pending %d inflight %d, want 0/0", r.pl.Pending(), r.pl.Inflight())
	}
}

// Two lanes wait on one full ring and one slot frees: the lane whose
// poll grid reaches the pop first takes it; the other, which a poll
// would only have shown the ring full again, is never woken and waits
// for the next pop.
func TestRingSpaceEarlierGridPointWins(t *testing.T) {
	r := newRingRig(t, 1, 8, 2)
	r.fill(t)
	r.pl.drainOn = true // hold the drain: the test pops by hand
	gap := r.pl.wqs[0].Dev.Cfg.Timing.PollGap
	pushedAt := []sim.Time{-1, -1}
	for i, start := range []sim.Time{0, 50} {
		r.e.Go("lane", func(p *sim.Proc) {
			p.SleepUntil(start)
			if err := r.pl.Lane(i).Submit(p, r.d); err != nil {
				t.Error(err)
			}
			pushedAt[i] = p.Now()
		})
	}
	var spins [2]sim.Time
	var grids [2]sim.Time
	var win, lose int
	var pop1, pop2 sim.Time
	r.e.At(sim.Time(time.Microsecond), func() {
		for i := range spins {
			spins[i] = r.pl.Lane(i).retryAt
		}
		if spins[0]%gap == spins[1]%gap {
			t.Fatalf("lanes share a poll grid (first attempts %v, %v)", spins[0], spins[1])
		}
		// Pop just past lane 0's grid point, so lane 1's comes first.
		pop1 = gridAfter(spins[0], gap, 5*sim.Time(time.Microsecond)) + 1
		for i := range grids {
			grids[i] = gridAfter(spins[i], gap, pop1)
		}
		win, lose = 0, 1
		if grids[1] < grids[0] {
			win, lose = 1, 0
		}
		r.e.At(pop1, func() {
			if _, ok := r.pl.pop(0); !ok {
				t.Error("first pop found the ring empty")
			}
		})
		pop2 = grids[lose] + 3*gap + 1
		r.e.At(pop2-1, func() {
			if pushedAt[win] != grids[win] {
				t.Errorf("lane %d pushed at %v, want its first grid point %v after the pop at %v", win, pushedAt[win], grids[win], pop1)
			}
			if pushedAt[lose] >= 0 {
				t.Errorf("lane %d pushed at %v into a ring the other lane refilled", lose, pushedAt[lose])
			}
			if got := r.pl.Lane(lose).retryAt; got != spins[lose] {
				t.Errorf("lane %d last tried at %v, want its first attempt %v: the pop should not wake it", lose, got, spins[lose])
			}
			if n := len(r.pl.waiting[0]); n != 1 {
				t.Errorf("%d lanes wait for space after the lost race, want 1", n)
			}
			if _, ok := r.pl.pop(0); !ok {
				t.Error("second pop found the ring empty")
			}
		})
	})
	r.e.Run()
	if want := gridAfter(spins[lose], gap, pop2-1); pushedAt[lose] != want {
		t.Errorf("lane %d pushed at %v after the second pop, want %v", lose, pushedAt[lose], want)
	}
}

// A pop with N lanes waiting on its ring schedules two events, the
// picked lane's wake and its grid-point push, where waking every waiter
// would schedule 2N; the other lanes stay parked.
func TestRingSpacePopWakesOneLane(t *testing.T) {
	const lanes = 6
	r := newRingRig(t, 1, 8, lanes)
	r.fill(t)
	r.pl.drainOn = true // hold the drain: the test pops by hand
	gap := r.pl.gap
	pushed := 0
	for i := 0; i < lanes; i++ {
		lane := r.pl.Lane(i)
		start := sim.Time(i * 37)
		r.e.Go("lane", func(p *sim.Proc) {
			p.SleepUntil(start)
			if err := lane.Submit(p, r.d); err != nil {
				t.Error(err)
			}
			pushed++
		})
	}
	r.e.RunUntil(sim.Time(5 * time.Microsecond))
	if n := len(r.pl.waiting[0]); n != lanes {
		t.Fatalf("%d lanes wait before the pop, want %d", n, lanes)
	}
	spins := make([]sim.Time, lanes)
	for i := range spins {
		spins[i] = r.pl.Lane(i).retryAt
	}
	// Pop off every lane's grid, so the picked lane's push is an event of
	// its own; it lands within one grid step of the pop.
	at := r.e.Now() + 1
	for onGrid(spins, gap, at) {
		at++
	}
	var before int64
	r.e.At(at, func() {
		before = r.e.Scheduled()
		if _, ok := r.pl.pop(0); !ok {
			t.Fatal("pop found the ring empty")
		}
		r.pl.pending-- // the entry leaves the books as a drained one would
	})
	r.e.RunUntil(at + gap + 1)
	if n := r.e.Scheduled() - before; n != 2 {
		t.Errorf("a pop with %d waiting lanes scheduled %d events, want 2", lanes, n)
	}
	if pushed != 1 || len(r.pl.waiting[0]) != lanes-1 {
		t.Errorf("%d lanes pushed and %d still wait, want 1 and %d", pushed, len(r.pl.waiting[0]), lanes-1)
	}
	r.pl.drainOn = false
	r.pl.ensureDrain()
	r.e.Run()
	if pushed != lanes {
		t.Errorf("%d of %d lanes pushed once the drain ran", pushed, lanes)
	}
}

// occTrace records a one-WQ device's occupancy transitions in event
// order, passing them on to the service's probe, and calls onDec, if
// set, at each entry that leaves the queue.
type occTrace struct {
	dsa.Probe
	last  int
	steps []occStep
	onDec func(at sim.Time)
}

// occStep is one traced event: delta +1 for an accepted submission, -1
// for an entry that left the WQ, and 0 for a push into the plane's ring,
// which the drain fuzz records beside them.
type occStep struct {
	at    sim.Time
	delta int
}

func (o *occTrace) WQOccupancy(wq *dsa.WQ, at sim.Time, occupied, size int) {
	o.steps = append(o.steps, occStep{at, occupied - o.last})
	if occupied < o.last && o.onDec != nil {
		o.onDec(at)
	}
	o.last = occupied
	o.Probe.WQOccupancy(wq, at, occupied, size)
}

func traceOcc(r *ringRig) *occTrace {
	o := &occTrace{Probe: r.svc.met}
	r.devs[0].SetProbe(o)
	return o
}

// A drain blocked on a full WQ schedules no event until the WQ frees a
// slot, where a poll every PollGap scheduled one per gap; it then submits
// at the first instant of its poll grid at or after the free.
func TestDrainParksOnFullWQ(t *testing.T) {
	r := newRingRig(t, 1, 4, 1)
	tr := traceOcc(r)
	fillWQ(t, r, r.pl.wqs[0])
	block := sim.Time(time.Microsecond)
	r.e.At(block, func() {
		if !r.push(r.d) {
			t.Fatal("push found the ring full")
		}
		r.pl.ensureDrain()
	})
	var parked, free sim.Time = -1, -1
	var atPark, atFree int64
	r.e.At(block+1, func() {
		if !r.pl.parked || !r.pl.holding[0] {
			t.Fatalf("drain parked %v holding %v after its pass into a full WQ, want both", r.pl.parked, r.pl.holding[0])
		}
		parked, atPark = r.e.Now(), r.e.Scheduled()
	})
	tr.onDec = func(at sim.Time) {
		if parked >= 0 && free < 0 {
			free, atFree = at, r.e.Scheduled()
		}
	}
	r.e.Go("waiter", func(p *sim.Proc) {
		p.SleepUntil(block + 2)
		r.pl.WaitInflight(p, 0)
	})
	r.e.Run()
	if free < 0 {
		t.Fatal("no slot freed after the drain parked")
	}
	// A drain polling every PollGap would schedule about
	// (free-block)/PollGap events here.
	if n := atFree - atPark; n != 0 {
		t.Errorf("parked drain scheduled %d events over the %v the WQ stayed full, want 0", n, free-parked)
	}
	var submitted sim.Time = -1
	for _, st := range tr.steps {
		if st.at > block && st.delta > 0 {
			submitted = st.at
			break
		}
	}
	if want := gridNext(block, r.pl.gap, free); submitted != want {
		t.Errorf("held entry submitted at %v, want %v: the first poll instant at or after the free at %v (blocked at %v)", submitted, want, free, block)
	}
	if r.pl.Pending() != 0 || r.pl.Inflight() != 0 || r.pl.drainOn {
		t.Errorf("after run: pending %d inflight %d drain running %v, want 0/0/false", r.pl.Pending(), r.pl.Inflight(), r.pl.drainOn)
	}
}

// A ring whose WQ dies fails its entries over one at a time, each by
// the plane's one re-queue: Failovers counts every entry the drain found
// queued on the dead WQ's ring and moved off it — one per refused
// WQ.Submit — each lands on a live ring or is shed, and each ends exactly
// once. A lane waiting for space on that ring takes the same re-queue
// when it wakes, before its entry reaches the dead ring, so it counts no
// failover.
func TestRingSpaceFailoverSweepConserves(t *testing.T) {
	outage := func(at sim.Time) dsa.FaultConfig {
		return dsa.FaultConfig{Outages: []dsa.Outage{{At: at, Dur: sim.Time(100 * time.Microsecond)}}}
	}
	// The drain's pops wake lanes waiting on the dead ring; each re-queues
	// its entry on the live ring and wakes the next waiter.
	t.Run("waiting lanes", func(t *testing.T) {
		const lanes = 12 // more than the ring holds: some re-wait
		r := newRingRig(t, 2, 8, lanes, outage(sim.Time(500*time.Nanosecond)))
		r.fill(t)
		queued := r.pl.rings[0].Len()
		total := queued + lanes
		done, failed := countEnds(r)
		returned := 0
		for i := 0; i < lanes; i++ {
			lane := r.pl.Lane(i)
			r.e.Go("lane", func(p *sim.Proc) {
				if err := lane.Submit(p, r.d); err != nil {
					t.Error(err)
				}
				returned++
			})
		}
		r.e.Go("drain starter", func(p *sim.Proc) {
			p.SleepUntil(sim.Time(2 * time.Microsecond))
			if n := len(r.pl.waiting[0]); n != lanes {
				t.Errorf("%d lanes wait for space before the failover, want %d", n, lanes)
			}
			r.pl.WaitInflight(p, 0)
		})
		r.e.Run()
		if *done+*failed != total {
			t.Errorf("done %d + failed %d, want all %d entries ended once", *done, *failed, total)
		}
		if st := r.tn.Stats(); st.Failovers != int64(queued) {
			t.Errorf("failovers %d, want %d: only the entries queued on the dead ring reach its refused Submit, no lane's", st.Failovers, queued)
		}
		if returned != lanes || len(r.pl.waiting[0]) != 0 {
			t.Errorf("%d of %d lanes returned, %d still wait on the dead ring", returned, lanes, len(r.pl.waiting[0]))
		}
		if got := r.devs[1].Stats().Submitted; got != int64(*done) {
			t.Errorf("socket 1 accepted %d, want the %d entries that completed", got, *done)
		}
		if r.pl.Pending() != 0 || r.pl.Inflight() != 0 {
			t.Errorf("after run: pending %d inflight %d, want 0/0", r.pl.Pending(), r.pl.Inflight())
		}
	})
	// N entries wait in socket 0's ring behind its full WQ when the
	// device dies: the drain fails each over to socket 1's ring or, with
	// socket 1 dead too, sheds it, and the barrier wakes either way.
	const n = 5
	dies := sim.Time(2 * time.Microsecond)
	for _, tc := range []struct {
		name    string
		allDead bool
	}{{"queued behind a full WQ", false}, {"every WQ dead", true}} {
		t.Run(tc.name, func(t *testing.T) {
			faults := []dsa.FaultConfig{outage(dies)}
			if tc.allDead {
				faults = append(faults, outage(dies))
			}
			r := newRingRig(t, 2, 8, 1, faults...)
			done, failed := countEnds(r)
			fillWQ(t, r, r.pl.wqs[0])
			r.e.At(sim.Time(time.Microsecond), func() {
				for i := 0; i < n; i++ {
					if !r.push(r.d) {
						t.Fatal("push found the ring full")
					}
				}
				if got := r.pl.rings[0].Len(); got != n {
					t.Fatalf("ring 0 holds %d entries, want %d", got, n)
				}
				r.pl.ensureDrain()
			})
			woke := sim.Time(-1)
			r.e.Go("waiter", func(p *sim.Proc) {
				p.SleepUntil(sim.Time(time.Microsecond) + 1)
				if !r.pl.parked {
					t.Error("drain not parked behind the full WQ before it died")
				}
				r.pl.WaitInflight(p, 0)
				woke = p.Now()
			})
			r.e.Run()
			st := r.tn.Stats()
			if st.Failovers != n {
				t.Errorf("failovers %d, want %d: one per entry moved off the dead ring", st.Failovers, n)
			}
			if *done+*failed != n || r.pl.Pending() != 0 || r.pl.Inflight() != 0 {
				t.Errorf("done %d failed %d pending %d inflight %d, want %d entries ended once",
					*done, *failed, r.pl.Pending(), r.pl.Inflight(), n)
			}
			if woke < dies {
				t.Errorf("WaitInflight returned at %v, want after the outage at %v", woke, dies)
			}
			if tc.allDead {
				if *failed != n || st.Failures != n {
					t.Errorf("failed %d, Failures %d, want all %d shed", *failed, st.Failures, n)
				}
				if heal := dies + sim.Time(100*time.Microsecond); woke >= heal {
					t.Errorf("WaitInflight returned at %v, want at the shed, before the heal at %v", woke, heal)
				}
				return
			}
			if got := r.devs[1].Stats().Submitted; *done != n || got != n {
				t.Errorf("done %d, socket 1 accepted %d, want all %d failed over to the live ring", *done, got, n)
			}
		})
	}
}

// countEnds counts the plane's successful and failed operation ends.
func countEnds(r *ringRig) (done, failed *int) {
	done, failed = new(int), new(int)
	r.pl.OnCompletion(func(_ sim.Time, ok bool) {
		if ok {
			*done++
		} else {
			*failed++
		}
	})
	return done, failed
}

// fillWQ busies every engine of wq's group with 1 MB copies and fills wq
// behind them, out of band of the plane.
func fillWQ(t *testing.T, r *ringRig, wq *dsa.WQ) {
	t.Helper()
	src, dst := r.tn.Alloc(1<<20), r.tn.Alloc(1<<20)
	big := dsa.Descriptor{Op: dsa.OpMemmove, PASID: r.tn.AS.PASID, Src: src.Addr(0), Dst: dst.Addr(0), Size: 1 << 20}
	submit := func() {
		for wq.Occupancy() < wq.Size {
			if _, err := wq.Submit(big); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit()
	// The engines take their first copies a portal hop later; refill.
	r.e.At(sim.Time(300), submit)
}

// FuzzRingSpaceWait checks both ends of a plane ring against the poll
// loops they replace.
//
// Lanes: a lane that finds its ring full re-tried its push every PollGap
// from its first attempt. With the drain held and pops at random instants
// off every lane's grid, the ring's push instants must equal that loop's
// as a multiset: lanes whose grids reach a pop at the same instant are
// interchangeable, so which of them takes the slot may differ.
//
// Drain: a drain that found its WQ full re-tried every PollGap from that
// pass. With entries of random sizes pushed at random instants into a
// small WQ, so the device frees slots at instants of its own, the drain
// must submit at the instants pollDrain replays from the same pushes and
// frees.
func FuzzRingSpaceWait(f *testing.F) {
	f.Add(uint8(1), uint8(2), []byte{0}, []byte{3}, uint8(0), []byte{0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), uint8(4), []byte{0, 5}, []byte{9, 1, 200, 7}, uint8(1), []byte{0, 1, 0, 2, 90, 0, 0, 3})
	f.Add(uint8(8), uint8(8), []byte{0, 0, 1, 9, 3, 3, 40, 2}, []byte{0, 1, 2, 3, 250, 4, 5, 6, 7, 8, 9}, uint8(3), []byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add(uint8(5), uint8(3), []byte{7, 7, 7}, []byte{60, 60, 60, 60, 60, 60}, uint8(2), []byte{0, 200, 0, 0, 0, 200, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, nLanes, size uint8, starts, pops []byte, wqSize uint8, pushes []byte) {
		fuzzLaneWait(t, nLanes, size, starts, pops)
		fuzzDrainPark(t, wqSize, starts, pushes)
	})
}

// fuzzLaneWait is FuzzRingSpaceWait's lane half.
func fuzzLaneWait(t *testing.T, nLanes, size uint8, starts, pops []byte) {
	lanes := 1 + int(nLanes)%8
	r := newRingRig(t, 1, 2+int(size)%15, lanes)
	r.fill(t)
	r.pl.drainOn = true
	ring := r.pl.rings[0]
	gap := r.pl.gap
	if len(pops) > 64 {
		pops = pops[:64]
	}
	var got []sim.Time
	for i := 0; i < lanes; i++ {
		var start sim.Time
		if len(starts) > 0 {
			start = sim.Time(starts[i%len(starts)]) * 7
		}
		lane := r.pl.Lane(i)
		r.e.Go("lane", func(p *sim.Proc) {
			p.SleepUntil(start)
			if err := lane.Submit(p, r.d); err != nil {
				t.Error(err)
			}
			got = append(got, p.Now())
		})
	}
	spins := make([]sim.Time, lanes)
	var popAt, pushed []sim.Time
	r.e.At(sim.Time(5*time.Microsecond), func() {
		for i := range spins {
			spins[i] = r.pl.Lane(i).retryAt
		}
		at := r.e.Now()
		for _, b := range pops {
			at += 1 + sim.Time(b)*13
			for onGrid(spins, gap, at) {
				at++
			}
			popAt = append(popAt, at)
			r.e.At(at, func() {
				// The entry leaves the books as a drained one would.
				if _, ok := r.pl.pop(0); ok {
					r.pl.pending--
				}
			})
		}
		// Every lane has re-tried once after the last pop by now.
		r.e.At(at+gap+1, func() {
			pushed = append(pushed, got...)
			if n := len(r.pl.waiting[0]); n != lanes-len(pushed) {
				t.Errorf("%d lanes still wait, want %d", n, lanes-len(pushed))
			}
			// Release the drain so the waiting lanes finish.
			r.pl.drainOn = false
			r.pl.ensureDrain()
		})
	})
	r.e.Run()
	want := pollPushes(spins, gap, popAt, ring.Cap())
	sort.Slice(pushed, func(i, j int) bool { return pushed[i] < pushed[j] })
	if len(pushed) != len(want) {
		t.Fatalf("%d lanes pushed, want %d (pops %v, first attempts %v)", len(pushed), len(want), popAt, spins)
	}
	for i := range pushed {
		if pushed[i] != want[i] {
			t.Fatalf("push instants %v, want %v (pops %v, first attempts %v)", pushed, want, popAt, spins)
		}
	}
	if len(got) != lanes {
		t.Errorf("%d of %d lanes pushed once the drain ran", len(got), lanes)
	}
}

// fuzzDrainPark is FuzzRingSpaceWait's drain half: one lane's pushes, each followed by the drain start a simulated submission makes,
// into a WQ of one to four entries.
func fuzzDrainPark(t *testing.T, wqSize uint8, sizes, pushes []byte) {
	r := newRingRig(t, 1, 1+int(wqSize)%4, 1)
	tr := traceOcc(r)
	src, dst := r.tn.Alloc(64<<10), r.tn.Alloc(64<<10)
	if len(pushes) > 48 {
		pushes = pushes[:48]
	}
	var at sim.Time
	for k, b := range pushes {
		at += sim.Time(b) * 11
		d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
		if len(sizes) > 0 {
			d.Size *= 1 + int64(sizes[k%len(sizes)])%16
		}
		r.e.At(at, func() {
			if r.push(d) {
				tr.steps = append(tr.steps, occStep{r.e.Now(), 0})
				r.pl.ensureDrain()
			}
		})
	}
	r.e.Run()
	if r.pl.Pending() != 0 || r.pl.Inflight() != 0 || r.pl.drainOn {
		t.Fatalf("after run: pending %d inflight %d drain running %v, want 0/0/false", r.pl.Pending(), r.pl.Inflight(), r.pl.drainOn)
	}
	var got []sim.Time
	for _, st := range tr.steps {
		if st.delta > 0 {
			got = append(got, st.at)
		}
	}
	want, tie := pollDrain(tr.steps, r.pl.wqs[0].Size, r.pl.gap)
	if tie {
		t.Skip("a WQ slot freed on a poll instant, where event order decides which comes first")
	}
	if len(got) != len(want) {
		t.Fatalf("drain submitted %d entries, want %d (submits %v, poll loop %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("drain submitted at %v, poll loop at %v (transitions %v)", got, want, tr.steps)
		}
	}
}

// pollDrain is the drain reference: a one-ring drain that runs a pass at
// each push while idle and, while its WQ is full, re-tries every gap from
// the pass that found it full. steps are the ring's pushes (delta 0) and
// the WQ's submissions (+1, ignored: they are what it predicts) and frees
// (-1), in event order. A pass at an instant follows every push and free
// of that instant; the one order that is not fixed, a free at a poll
// instant, is reported as a tie. It returns the submission instants.
func pollDrain(steps []occStep, size int, gap sim.Time) (subs []sim.Time, tie bool) {
	ring, occ, held, polling := 0, 0, false, false
	var next sim.Time
	pass := func(at sim.Time) {
		polling = false
		for held || ring > 0 {
			if !held {
				ring, held = ring-1, true
			}
			if occ == size {
				polling, next = true, at+gap
				return
			}
			occ, held = occ+1, false
			subs = append(subs, at)
		}
	}
	for i := 0; i < len(steps) || polling; {
		if polling && (i == len(steps) || next < steps[i].at) {
			pass(next)
			continue
		}
		at, pushed := steps[i].at, false
		for ; i < len(steps) && steps[i].at == at; i++ {
			switch steps[i].delta {
			case 0:
				ring, pushed = ring+1, true
			case -1:
				occ--
				tie = tie || polling && next == at
			}
		}
		if polling && next == at || !polling && pushed {
			pass(at)
		}
	}
	return subs, tie
}

// onGrid reports whether instant at is a poll instant of any spin's grid.
func onGrid(spins []sim.Time, gap, at sim.Time) bool {
	for _, s := range spins {
		if at > s && (at-s)%gap == 0 {
			return true
		}
	}
	return false
}

// pollPushes is the reference: lanes that first found a full ring of
// the given capacity at spins re-try every gap, and the ring loses one entry at
// each of pops (none of which falls on a grid point). It returns the
// sorted push instants.
func pollPushes(spins []sim.Time, gap sim.Time, pops []sim.Time, capacity int) []sim.Time {
	next := make([]sim.Time, len(spins))
	for i, s := range spins {
		next[i] = s + gap
	}
	var out []sim.Time
	n, pi := capacity, 0
	for {
		lane := -1
		for i, t := range next {
			if t >= 0 && (lane < 0 || t < next[lane]) {
				lane = i
			}
		}
		if pi < len(pops) && (lane < 0 || pops[pi] < next[lane]) {
			if n > 0 {
				n--
			}
			pi++
			continue
		}
		if lane < 0 || pi == len(pops) && n == capacity {
			return out
		}
		if n < capacity {
			n++
			out = append(out, next[lane])
			next[lane] = -1
		} else {
			next[lane] += gap
		}
	}
}
