package exp

import (
	"fmt"

	"dsasim/internal/offload"
	"dsasim/internal/platform"
	"dsasim/internal/report"
	"dsasim/internal/sim"
)

// Placement compares tenant-socket routing (NUMALocal) against data-home
// routing (the Placement scheduler) on a two-socket SPR system with one
// DSA per socket and a CXL expander on socket 0 (G4, Figs 6a/6b):
//
//   - local: tenant and data on socket 0 — every policy agrees (the
//     ~27 GB/s device-fabric ceiling anchors the scale).
//   - xsock: two tenants whose data is homed on the *other* socket.
//     NUMALocal keeps each tenant on its own socket's device, so every
//     byte crosses UPI twice (once per leg) and the shared link halves
//     aggregate throughput (Fig 6a); Placement follows the data and never
//     touches UPI.
//   - cxl-mix: tiered-memory flush cycles whose batches mix socket-0
//     compaction, socket-1 compaction, and DRAM↔CXL migration. NUMALocal
//     (and Placement without splitting) serializes each flush behind one
//     device fabric; splitting shards it into per-socket sub-batches that
//     run on both devices in parallel.
//   - demote/promote: DRAM↔CXL streams with both ends on socket 0 — the
//     CXL pipes bound throughput wherever the device sits (Fig 6b), so
//     the policies tie and the rows anchor the media crossover.
//   - skew: one tenant saturates socket 0 (all data socket-0 DRAM, a deep
//     in-flight window) while socket 1's DSA idles. Data-only placement
//     serializes behind the home device; load-aware placement
//     (Policy.LoadAware) detours submissions across UPI once the modelled
//     queueing delay exceeds the transfer penalty, running both devices.
func Placement() []*report.Table {
	t := report.New("placement", "Data-home placement: 2 sockets, 1 DSA each, CXL on socket 0", "workload", "GB/s")
	for i, wl := range placementWorkloads() {
		for _, cfg := range placementConfigs() {
			t.SetNamed(cfg.name, wl.name, float64(i), placementThroughput(cfg, wl))
		}
	}
	t.Note("xsock: routing on the data's home instead of the tenant's socket keeps both legs off UPI (Fig 6a, G4)")
	t.Note("cxl-mix: splitting a mixed-home batch puts each slice on its local device and runs the devices in parallel")
	t.Note("demote/promote: the CXL pipes bound throughput wherever the device sits (Fig 6b)")
	t.Note("skew: load-aware placement rides the idle remote device once queueing delay dwarfs the UPI penalty (§3.3/§5)")
	return []*report.Table{t}
}

// placementCfg is one scheduler series of the sweep.
type placementCfg struct {
	name      string
	sched     func() offload.Scheduler
	split     bool
	loadAware bool
}

// placementConfigs returns the compared policies: the NUMALocal baseline,
// data-home routing without batch splitting, the full placement path, and
// placement with the load-aware fallback on.
func placementConfigs() []placementCfg {
	return []placementCfg{
		{name: "numa-local", sched: func() offload.Scheduler { return offload.NewNUMALocal() }},
		{name: "placement-nosplit", sched: func() offload.Scheduler { return offload.NewPlacement() }},
		{name: "placement", sched: func() offload.Scheduler { return offload.NewPlacement() }, split: true},
		{name: "placement-load", sched: func() offload.Scheduler { return offload.NewPlacement() }, split: true, loadAware: true},
	}
}

// placementWorkload drives one traffic pattern on the prepared service,
// running the engine to completion, and returns the payload bytes moved
// and the finish instant.
type placementWorkload struct {
	name string
	run  func(e *sim.Engine, svc *offload.Service) (int64, sim.Time)
}

// placementWorkloads returns the sweep's traffic patterns. Node ids follow
// the SPR layout: 0 = socket-0 DRAM, 1 = socket-1 DRAM, 2 = CXL (socket 0).
func placementWorkloads() []placementWorkload {
	return []placementWorkload{
		{name: "local", run: func(e *sim.Engine, svc *offload.Service) (int64, sim.Time) {
			return copyStreams(e, svc, []copyStream{{tenantSocket: 0, srcNode: 0, dstNode: 0, size: 256 << 10, count: 40}})
		}},
		{name: "xsock", run: func(e *sim.Engine, svc *offload.Service) (int64, sim.Time) {
			return copyStreams(e, svc, []copyStream{
				{tenantSocket: 0, srcNode: 1, dstNode: 1, size: 256 << 10, count: 40},
				{tenantSocket: 1, srcNode: 0, dstNode: 0, size: 256 << 10, count: 40},
			})
		}},
		{name: "cxl-mix", run: mixedMigrationBatches},
		{name: "demote", run: func(e *sim.Engine, svc *offload.Service) (int64, sim.Time) {
			return copyStreams(e, svc, []copyStream{{tenantSocket: 0, srcNode: 0, dstNode: 2, size: 1 << 20, count: 12}})
		}},
		{name: "promote", run: func(e *sim.Engine, svc *offload.Service) (int64, sim.Time) {
			return copyStreams(e, svc, []copyStream{{tenantSocket: 0, srcNode: 2, dstNode: 0, size: 1 << 20, count: 12}})
		}},
		{name: "skew", run: func(e *sim.Engine, svc *offload.Service) (int64, sim.Time) {
			return skewedLoad(e, svc, 16)
		}},
	}
}

// skewedLoad saturates socket 0: one bulk tenant whose data is all homed
// on socket-0 DRAM keeps qd 256 KB copies in flight while socket 1's
// device idles. Data-only placement follows the data onto the backlogged
// device; with Policy.LoadAware the cost model detours submissions to the
// idle remote device once the home WQ's queueing delay (latency EWMA ×
// occupancy) exceeds the UPI transfer penalty, so both devices run.
func skewedLoad(e *sim.Engine, svc *offload.Service, qd int) (int64, sim.Time) {
	const (
		size  = int64(256 << 10)
		count = 96
	)
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		panic(err)
	}
	src := tn.AllocOn(0, size)
	dst := tn.AllocOn(0, size)
	var end sim.Time
	e.Go("bulk", func(p *sim.Proc) {
		var window []*offload.Future
		for k := 0; k < count; k++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), size, offload.On(offload.Hardware))
			if err != nil {
				panic(err)
			}
			window = append(window, f)
			if len(window) >= qd {
				if _, err := window[0].Wait(p, offload.Poll); err != nil {
					panic(err)
				}
				window = window[1:]
			}
		}
		for _, f := range window {
			if _, err := f.Wait(p, offload.Poll); err != nil {
				panic(err)
			}
		}
		end = p.Now()
	})
	e.Run()
	return size * count, end
}

// copyStream is one tenant streaming synchronous hardware copies.
type copyStream struct {
	tenantSocket     int
	srcNode, dstNode int
	size             int64
	count            int
}

// copyStreams runs every stream concurrently and returns the aggregate
// bytes and the instant the last stream finished.
func copyStreams(e *sim.Engine, svc *offload.Service, streams []copyStream) (int64, sim.Time) {
	var total int64
	var end sim.Time
	for i, s := range streams {
		s := s
		tn, err := svc.NewTenant(offload.OnSocket(s.tenantSocket))
		if err != nil {
			panic(err)
		}
		src := tn.AllocOn(s.srcNode, s.size)
		dst := tn.AllocOn(s.dstNode, s.size)
		total += s.size * int64(s.count)
		e.Go(fmt.Sprintf("stream%d", i), func(p *sim.Proc) {
			for k := 0; k < s.count; k++ {
				f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), s.size, offload.On(offload.Hardware))
				if err != nil {
					panic(err)
				}
				if _, err := f.Wait(p, offload.Poll); err != nil {
					panic(err)
				}
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	e.Run()
	return total, end
}

// mixedMigrationBatches models a tiered-memory manager's flush cycle: each
// batch compacts six 1 MB regions within each socket's DRAM and migrates
// two cold/hot 128 KB regions between socket-0 DRAM and CXL. The homes
// mix, so a data-aware scheduler with splitting shards every flush across
// both devices, while a single-WQ policy serializes ~12.5 MB behind one
// device fabric (and pushes the socket-1 slice through UPI twice).
func mixedMigrationBatches(e *sim.Engine, svc *offload.Service) (int64, sim.Time) {
	const (
		batches   = 6
		compacts  = 6 // per socket, 1 MB each
		compactSz = int64(1 << 20)
		migrates  = 2 // demote + promote, 128 KB each
		migrateSz = int64(128 << 10)
	)
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		panic(err)
	}
	s1src := tn.AllocOn(1, compacts*compactSz)
	s1dst := tn.AllocOn(1, compacts*compactSz)
	s0src := tn.AllocOn(0, compacts*compactSz)
	s0dst := tn.AllocOn(0, compacts*compactSz)
	demoteSrc := tn.AllocOn(0, migrateSz)
	demoteDst := tn.AllocOn(2, migrateSz)
	promoteSrc := tn.AllocOn(2, migrateSz)
	promoteDst := tn.AllocOn(0, migrateSz)

	perBatch := 2*compacts*compactSz + int64(migrates)*migrateSz
	var end sim.Time
	e.Go("migrator", func(p *sim.Proc) {
		for i := 0; i < batches; i++ {
			b := tn.NewBatch()
			// Socket-1 compaction first: a data-blind (or no-split) policy
			// then routes the whole flush by the tenant's socket or the
			// first child's home — one device either way.
			for j := int64(0); j < compacts; j++ {
				b.Copy(s1dst.Addr(j*compactSz), s1src.Addr(j*compactSz), compactSz)
				b.Copy(s0dst.Addr(j*compactSz), s0src.Addr(j*compactSz), compactSz)
			}
			b.Copy(demoteDst.Addr(0), demoteSrc.Addr(0), migrateSz)
			b.Copy(promoteDst.Addr(0), promoteSrc.Addr(0), migrateSz)
			f, err := b.Submit(p)
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
	return int64(batches) * perBatch, end
}

// Skew sweeps the skewed-load scenario's in-flight window: data-only
// placement (the PR-3 behavior) against load-aware placement
// (Policy.LoadAware) with socket 0 saturated and socket 1 idle. At a
// shallow window the home WQ barely queues and the two policies tie; as
// the window deepens, queueing delay on the home device grows linearly
// while the UPI penalty stays flat, so the load-aware detour buys an
// increasing share of the idle device's bandwidth — the trajectory CI's
// bench-gate asserts on.
func Skew() []*report.Table {
	t := report.New("skew", "Skewed load: socket 0 saturated, socket 1 idle — data-only vs load-aware placement", "inflight", "GB/s")
	for _, qd := range []int{4, 8, 16, 24} {
		for _, cfg := range placementConfigs() {
			if cfg.name != "placement" && cfg.name != "placement-load" {
				continue
			}
			wl := placementWorkload{name: "skew", run: func(e *sim.Engine, svc *offload.Service) (int64, sim.Time) {
				return skewedLoad(e, svc, qd)
			}}
			t.Set(cfg.name, float64(qd), placementThroughput(cfg, wl))
		}
	}
	t.Note("queueing delay grows with the window while the UPI penalty stays flat: the deeper the backlog, the more the detour wins (§3.3/§5)")
	return []*report.Table{t}
}

// placementThroughput measures aggregate GB/s of the workload under cfg on
// the two-device SPR system.
func placementThroughput(cfg placementCfg, wl placementWorkload) float64 {
	pol := offload.DefaultPolicy()
	pol.SplitBatches = cfg.split
	pol.LoadAware = cfg.loadAware
	pr := platform.SPR()
	pr.Scheduler = cfg.sched
	pr.Policy = &pol
	pl := dsaPerSocket(pr)
	bytes, end := wl.run(pl.E, pl.Offload)
	return sim.Rate(bytes, end)
}
