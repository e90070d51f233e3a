package exp

import (
	"dsasim/internal/offload"
	"dsasim/internal/platform"
	"dsasim/internal/report"
	"dsasim/internal/sim"
)

// Sched compares the offload service's WQ-selection policies on a
// two-socket SPR system with one DSA instance per socket: a socket-0
// tenant streams synchronous copies between socket-local buffers.
// Round-robin sends every other descriptor across UPI and pays the
// remote-socket latency on each leg (Fig 6a); NUMA-local keeps the tenant
// on its own socket's device; least-loaded sits between (at queue depth 1
// occupancy never differentiates the queues, so its tie-break alternates
// like round-robin — it pulls ahead only under backlog, see the offload
// package tests); placement routes on the data's home, which for
// socket-local buffers coincides with NUMA-local (its advantage appears
// when data and tenant part ways — see the placement experiment), and
// placement-load (Policy.LoadAware) must coincide with placement here:
// sequential traffic never queues, so the cost model never detours.
func Sched() []*report.Table {
	t := report.New("sched", "Offload scheduler comparison: 2 sockets, 1 DSA each, socket-local tenant", "xfer", "GB/s")
	sizes := []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	scheds := []struct {
		name      string
		mk        func() offload.Scheduler
		loadAware bool
	}{
		{"round-robin", func() offload.Scheduler { return offload.NewRoundRobin() }, false},
		{"numa-local", func() offload.Scheduler { return offload.NewNUMALocal() }, false},
		{"least-loaded", func() offload.Scheduler { return offload.NewLeastLoaded() }, false},
		{"placement", func() offload.Scheduler { return offload.NewPlacement() }, false},
		{"placement-load", func() offload.Scheduler { return offload.NewPlacement() }, true},
	}
	for _, sc := range scheds {
		for _, size := range sizes {
			pol := offload.DefaultPolicy()
			pol.LoadAware = sc.loadAware
			gbps := schedThroughput(sc.mk(), pol, size, 60)
			t.Set(sc.name, float64(size), gbps)
		}
	}
	t.Note("NUMA-local ≥ round-robin at every size: blind balancing pays the UPI hop on half the submissions (guideline: schedule for locality first)")
	t.Note("placement-load ties placement on never-queued traffic: the load-aware detour engages only under backlog (see the skew experiment)")
	return []*report.Table{t}
}

// schedThroughput measures GB/s of a socket-0 tenant running count
// synchronous copies under the given scheduler and policy.
func schedThroughput(sched offload.Scheduler, pol offload.Policy, size int64, count int) float64 {
	pr := platform.SPR()
	pr.Nodes = pr.Nodes[:2]
	pr.Scheduler = func() offload.Scheduler { return sched }
	pr.Policy = &pol
	pl := dsaPerSocket(pr)
	e := pl.E
	tn := pl.NewTenantOn(0)
	src := tn.Alloc(size)
	dst := tn.Alloc(size)
	var end sim.Time
	e.Go(tn.Core.Owner(), func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), size, offload.On(offload.Hardware))
			if err != nil {
				panic(err)
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				panic(err)
			}
		}
		end = p.Now()
	})
	e.Run()
	return sim.Rate(size*int64(count), end)
}
