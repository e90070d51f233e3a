package offload

import (
	"sort"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// ringRig is a plane over one shared WQ of the given size per socket, for
// in-package tests that drive the plane's rings by hand.
type ringRig struct {
	e    *sim.Engine
	devs []*dsa.Device
	svc  *Service
	tn   *Tenant
	pl   *Plane
	d    dsa.Descriptor // a 4 KB copy between tenant buffers
}

func newRingRig(t *testing.T, sockets, size, lanes int, faults ...dsa.FaultConfig) *ringRig {
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
		if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Shared, Size: size}}}); err != nil {
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
	var err error
	if r.svc, err = NewService(e, sys, wqs); err != nil {
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

// fill pushes host-domain submissions into ring 0 until it is full. The
// host path schedules no drain, so the entries stay put until the test
// pops them or starts the drain.
func (r *ringRig) fill(t *testing.T) {
	t.Helper()
	ring := r.pl.rings[0]
	for ring.Len() < ring.Cap() {
		if err := r.pl.Lane(0).TrySubmit(r.e.Now(), r.d); err != nil {
			t.Fatal(err)
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
// poll grid reaches the pop first takes it, the other re-tries on its own
// grid, finds the ring full again and waits for the next pop.
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
			if got := r.pl.Lane(lose).retryAt; got != grids[lose] {
				t.Errorf("lane %d last tried at %v, want its grid point %v", lose, got, grids[lose])
			}
			if n := r.pl.space[0].Waiters(); n != 1 {
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

// A ring whose WQ dies while lanes wait on it is swept by failover: the
// sweep's pops wake the lanes, whose pushes land in the dead ring and are
// swept in turn, and every entry still ends exactly once.
func TestRingSpaceFailoverSweepConserves(t *testing.T) {
	const lanes = 12 // more than the ring holds: some re-wait on the sweep
	outage := dsa.FaultConfig{Outages: []dsa.Outage{{At: sim.Time(500 * time.Nanosecond), Dur: sim.Time(100 * time.Microsecond)}}}
	r := newRingRig(t, 2, 8, lanes, outage)
	r.fill(t)
	total := r.pl.rings[0].Len() + lanes
	var done, failed int
	r.pl.OnCompletion(func(_ sim.Time, ok bool) {
		if ok {
			done++
		} else {
			failed++
		}
	})
	for i := 0; i < lanes; i++ {
		lane := r.pl.Lane(i)
		r.e.Go("lane", func(p *sim.Proc) {
			if err := lane.Submit(p, r.d); err != nil {
				t.Error(err)
			}
		})
	}
	r.e.Go("drain starter", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(2 * time.Microsecond))
		if n := r.pl.space[0].Waiters(); n != lanes {
			t.Errorf("%d lanes wait for space before the sweep, want %d", n, lanes)
		}
		r.pl.WaitInflight(p, 0)
	})
	r.e.Run()
	if done+failed != total {
		t.Errorf("done %d + failed %d, want all %d entries ended once", done, failed, total)
	}
	if st := r.tn.Stats(); st.Failovers == 0 {
		t.Error("no failover: the outage did not reach the drain")
	}
	if r.pl.Pending() != 0 || r.pl.Inflight() != 0 {
		t.Errorf("after run: pending %d inflight %d, want 0/0", r.pl.Pending(), r.pl.Inflight())
	}
}

// FuzzRingSpaceWait checks lanes waiting on a full ring against the loop
// they replace, a TryPush every PollGap from the first attempt: with the
// drain held and pops at random instants off every lane's grid, the
// multiset of push instants must equal that loop's. Lanes sharing a grid
// are interchangeable, so the multiset does not depend on which of them
// wins a tie.
func FuzzRingSpaceWait(f *testing.F) {
	f.Add(uint8(1), uint8(2), []byte{0}, []byte{3})
	f.Add(uint8(2), uint8(4), []byte{0, 5}, []byte{9, 1, 200, 7})
	f.Add(uint8(8), uint8(8), []byte{0, 0, 1, 9, 3, 3, 40, 2}, []byte{0, 1, 2, 3, 250, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(5), uint8(3), []byte{7, 7, 7}, []byte{60, 60, 60, 60, 60, 60})
	f.Fuzz(func(t *testing.T, nLanes, size uint8, starts, pops []byte) {
		lanes := 1 + int(nLanes)%8
		r := newRingRig(t, 1, 2+int(size)%15, lanes)
		r.fill(t)
		r.pl.drainOn = true
		ring := r.pl.rings[0]
		gap := r.pl.wqs[0].Dev.Cfg.Timing.PollGap
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
						r.pl.pending.Add(-1)
					}
				})
			}
			// Every lane has re-tried once after the last pop by now.
			r.e.At(at+gap+1, func() {
				pushed = append(pushed, got...)
				if n := r.pl.space[0].Waiters(); n != lanes-len(pushed) {
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
	})
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
