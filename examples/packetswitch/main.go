// Packetswitch: the paper's DPDK Vhost case study (§6.4) end to end — a
// VirtIO backend forwarding packet bursts into guest memory, comparing the
// CPU copy path against the DSA batch-offload pipeline across packet sizes,
// and verifying in-order, intact delivery.
package main

import (
	"fmt"
	"time"

	"dsasim"
	"dsasim/internal/dsa"
	"dsasim/internal/fleet"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
	"dsasim/internal/vhost"
)

func forwardingRate(mode vhost.Mode, pktSize int64) (float64, bool) {
	// The QoS profile: each device exposes a reserved high-priority WQ
	// that the PriorityAware scheduler hands to latency-sensitive tenants
	// — packet forwarding is exactly that class of traffic.
	pl := dsasim.NewPlatform(dsasim.SPRQoS())
	tn := pl.NewTenant(offload.WithClass(offload.LatencySensitive))
	vq := vhost.NewVirtqueue(tn.AS, pl.Node(0), 256, 2048)
	var wq *dsa.WQ
	if mode == vhost.DSACopy {
		// The backend drives one queue directly; take the scheduler's pick
		// for this tenant's socket and class — the express WQ.
		wq = pl.Offload.Scheduler().Pick(offload.Request{
			Socket: tn.Core.Socket,
			Class:  offload.LatencySensitive,
			Topo:   pl.Offload.Topology(),
		}, pl.Offload.WQs())
	}
	backend, err := vhost.NewBackend(mode, vq, tn.Core, tn.AS, wq)
	if err != nil {
		panic(err)
	}
	gen := vhost.NewGenerator(pktSize, 7)

	const bursts = 50
	var elapsed sim.Time
	pl.Run(func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < bursts; i++ {
			pkts := gen.Burst(32)
			off := 0
			for off < len(pkts) {
				n, err := backend.EnqueueBurst(p, pkts[off:])
				if err != nil {
					panic(err)
				}
				off += n
				for vq.UsedLen() > 0 {
					vq.PopUsed() // the guest consumes and refills
				}
				if n == 0 {
					p.Sleep(100 * time.Nanosecond)
				}
			}
		}
		backend.Drain(p)
		elapsed = p.Now() - start
	})
	return float64(bursts*32) / (float64(elapsed) / 1e3), backend.InOrder()
}

func main() {
	fmt.Println("DPDK-Vhost-style packet forwarding (Mpps), CPU copies vs DSA offload")
	fmt.Printf("%-10s %10s %10s %8s\n", "pkt size", "CPU", "DSA", "DSA/CPU")
	for _, size := range []int64{64, 128, 256, 512, 1024, 1280, 1518} {
		cpu, okC := forwardingRate(vhost.CPUCopy, size)
		dsaR, okD := forwardingRate(vhost.DSACopy, size)
		if !okC || !okD {
			panic("packets delivered out of order")
		}
		fmt.Printf("%-10d %10.2f %10.2f %8.2fx\n", size, cpu, dsaR, dsaR/cpu)
	}
	fmt.Println("\nall packets delivered intact and in order (reorder array, §6.4)")

	// The same switch as a fleet: the packetswitch-fleet scenario drives
	// thousands of connections of open-loop phased traffic through the
	// sharded submission plane while latency-sensitive tenants share the
	// devices — the capacity-planning view of the per-burst loop above.
	fmt.Println("\nfleet view: packetswitch-fleet steady vs overload (internal/fleet, 0.2x scale)")
	r := fleet.Run(fleet.Packetswitch().Scaled(0.2))
	fmt.Printf("%-10s %14s %14s %12s %12s\n", "phase", "fg good kops/s", "bg good kops/s", "fg p99", "bg p99")
	for _, ph := range r.Phases {
		fmt.Printf("%-10s %14.0f %14.0f %12v %12v\n",
			ph.Name, ph.Goodput[fleet.FG], ph.Goodput[fleet.BG], ph.P99[fleet.FG], ph.P99[fleet.BG])
	}
	fmt.Println("full ramp + SLO-attained throughput: go run ./cmd/dsa-bench -run fleet")
}
