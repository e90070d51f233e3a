package exp

import (
	"fmt"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/offload"
	"dsasim/internal/platform"
	"dsasim/internal/report"
	"dsasim/internal/sim"
)

// ContentionSweep is the submitter counts the contention experiment
// measures. cmd/dsa-bench -submitters narrows it for quick local runs;
// the committed baseline and the CI scale gate use the full sweep.
var ContentionSweep = []int{1, 4, 16, 64}

// contention workload shape: a closed loop per submitter — think, submit
// one 1 KB copy, keep a small per-submitter window in flight. Small
// transfers with think time make the submission path itself the
// bottleneck candidate: device capacity (4 devices × 4 engines) stays
// well above even 64 submitters' demand, so any scaling loss is
// submission-plane serialization, which is exactly what the experiment
// isolates.
const (
	contOps      = 400                    // submissions per submitter
	contSize     = 1024                   // bytes per copy
	contThink    = 1500 * time.Nanosecond // per-op application work
	contQD       = 4                      // in-flight window per submitter
	contLockHold = 75 * time.Nanosecond   // monolithic plane's critical section
)

// Contention measures Submit/Wait scaling versus concurrent submitters
// over one table (id "contention", y in Mops/s):
//
//   - sharded: the per-shard submission plane — the tenant's one
//     admission bucket (off here), bounded per-WQ rings, occupancy
//     routing. Each submitter pays its own portal write in parallel; the
//     only serialization is the ring's slot-publish CAS (Timing.RingPush
//     per push).
//   - global-lock: the same workload through the classic shared-state
//     tenant path, with the shared mutable state (bucket, scheduler
//     pick, telemetry sync) modeled as a single 75 ns critical section
//     every submission crosses — the monolithic submission plane.
//   - ideal: the sharded single-submitter rate times the submitter
//     count; linear scaling with zero contention.
//
// The CI scale gate asserts sharded/ideal ≥ 0.7 at 64 submitters (an
// absolute floor, not just a baseline ratio) and sharded > global-lock.
func Contention() []*report.Table {
	t := report.New("contention", "Submission-plane scaling vs concurrent submitters",
		"submitters", "Mops/s")
	var base float64
	for _, n := range ContentionSweep {
		sharded := contentionRun(n, true)
		lock := contentionRun(n, false)
		if base == 0 {
			// The ideal anchor is the sharded single-submitter rate; a
			// narrowed sweep (-submitters) anchors on its smallest point.
			base = sharded / float64(ContentionSweep[0])
		}
		x := float64(n)
		t.Set("sharded", x, sharded)
		t.Set("global-lock", x, lock)
		t.Set("ideal", x, base*float64(n))
	}
	t.Note("closed loop per submitter: %v think, %dB copies, window %d; 4 shared-WQ devices (2/socket) keep device capacity above demand, isolating the submission plane", contThink, contSize, contQD)
	t.Note("global-lock models the monolithic plane's shared state as one %v critical section per submission; sharded serializes only on the %v ring-slot CAS", contLockHold, dsa.DefaultTiming().RingPush)
	t.Note("ideal is the sharded 1-submitter rate x N; CI gates sharded/ideal at 64 submitters with an absolute 0.7 floor")
	return []*report.Table{t}
}

// contentionRun drives n submitters to completion and returns the
// aggregate submission rate in Mops/s. The platform has 4 devices, two per
// socket, each with 4 engines behind one 128-entry shared WQ, under an
// offload service with admission off and the default scheduler.
func contentionRun(n int, sharded bool) float64 {
	pr := platform.SPR()
	pr.Devices = 4
	pr.DeviceSockets = []int{0, 1, 0, 1}
	pr.Groups = []dsa.GroupConfig{{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Shared, Size: 128}}}}
	plat := platform.NewPlatform(pr)
	e, tn := plat.E, plat.NewTenant()
	src := tn.Alloc(contSize)
	dst := tn.Alloc(contSize)

	var end sim.Time
	if sharded {
		pl, err := tn.NewPlane(n)
		if err != nil {
			panic(err)
		}
		d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: contSize}
		for i := 0; i < n; i++ {
			lane := pl.Lane(i)
			e.Go(fmt.Sprintf("shard%d", i), func(p *sim.Proc) {
				for j := 0; j < contOps; j++ {
					p.Sleep(sim.Time(contThink))
					if err := lane.Submit(p, d); err != nil {
						panic(err)
					}
					pl.WaitInflight(p, int64(n*contQD))
				}
				pl.WaitInflight(p, 0)
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
	} else {
		lock := sim.NewToken(1)
		for i := 0; i < n; i++ {
			e.Go(fmt.Sprintf("mono%d", i), func(p *sim.Proc) {
				window := make([]*offload.Future, 0, contQD)
				for j := 0; j < contOps; j++ {
					p.Sleep(sim.Time(contThink))
					// The monolithic plane's shared state: every
					// submission serializes through one critical section.
					at := lock.Acquire(p.Now(), sim.Time(contLockHold))
					p.SleepUntil(at + sim.Time(contLockHold))
					fut, err := tn.Copy(p, dst.Addr(0), src.Addr(0), contSize,
						offload.On(offload.Hardware), offload.NoBatch())
					if err != nil {
						panic(err)
					}
					window = append(window, fut)
					if len(window) >= contQD {
						if _, err := window[0].Wait(p, offload.Poll); err != nil {
							panic(err)
						}
						window = window[1:]
					}
				}
				for _, fut := range window {
					if _, err := fut.Wait(p, offload.Poll); err != nil {
						panic(err)
					}
				}
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
	}
	e.Run()
	ops := float64(n * contOps)
	return ops / float64(end) * 1e3 // events/ns → Mops/s
}
