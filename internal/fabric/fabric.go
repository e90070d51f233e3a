// Package fabric reimplements the paper's libfabric/HPC case study
// (Appendix A, Figs 17/18): intra-node messaging through the Segmentation
// and Reassembly (SAR) protocol — where every message is chunked through
// bounce buffers with one send-side and one receive-side copy — with the
// copies executed on the CPU or offloaded to DSA. On top of it sit the
// Pingpong and RMA microbenchmarks, the OSU-style bandwidth and ring
// AllReduce collectives, and the BERT pretraining phase model.
package fabric

import (
	"fmt"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// Mode selects the SAR copy engine.
type Mode int

// Copy modes.
const (
	// CPUCopy performs SAR copies with memcpy on the cores.
	CPUCopy Mode = iota
	// DSACopy offloads SAR copies as asynchronous DSA descriptors.
	DSACopy
)

// SegSize is the SAR bounce-buffer segment size.
const SegSize int64 = 64 << 10

// Domain is one fabric provider domain: the shared engine, system, node,
// copy mode, and — when offloading — the offload service fronting the DSA
// work queues.
type Domain struct {
	E    *sim.Engine
	Sys  *mem.System
	Node *mem.Node
	Mode Mode
	WQs  []*dsa.WQ
	CPU  cpu.Model
	Svc  *offload.Service

	nextID int
}

// NewDomain creates a fabric domain.
func NewDomain(e *sim.Engine, sys *mem.System, node *mem.Node, model cpu.Model, mode Mode, wqs []*dsa.WQ) (*Domain, error) {
	d := &Domain{E: e, Sys: sys, Node: node, Mode: mode, WQs: wqs, CPU: model}
	if mode == DSACopy {
		if len(wqs) == 0 {
			return nil, fmt.Errorf("fabric: DSA mode needs work queues")
		}
		// Endpoints supply their own address spaces and cores (SharedSpace
		// + OnCore), so no base options are needed here.
		svc, err := offload.NewService(e, sys, wqs, offload.WithCPUModel(model))
		if err != nil {
			return nil, err
		}
		d.Svc = svc
	}
	return d, nil
}

// Window is the number of SAR segments in flight per transfer in DSA mode.
const Window = 8

// Endpoint is one communication endpoint (an MPI rank).
type Endpoint struct {
	Dom  *Domain
	ID   int
	AS   *mem.AddressSpace
	Core *cpu.Core
	T    *offload.Tenant

	// bounce is the ring of SAR bounce segments for sends from this
	// endpoint; inbox is the ring where peers deposit segments for it.
	// Slot k%Window is only rewritten after its previous occupant's copies
	// completed, keeping the deferred device copies functionally correct.
	bounce []*mem.Buffer
	inbox  []*mem.Buffer

	// SerializeCopies makes CPU-mode sends charge the send-side and
	// receive-side copies sequentially. Point-to-point tests leave it
	// false (the idle peer core absorbs the receive copy, so the copies
	// pipeline); collectives set it because every core is busy with its
	// own send (AllReduce).
	SerializeCopies bool

	BytesSent int64
}

// NewEndpoint creates an endpoint with its own address space and core.
func (d *Domain) NewEndpoint() (*Endpoint, error) {
	id := d.nextID
	d.nextID++
	as := mem.NewAddressSpace(300 + id)
	core := cpu.NewCore(100+id, 0, d.Sys, as, d.CPU)
	ep := &Endpoint{Dom: d, ID: id, AS: as, Core: core}
	for i := 0; i < Window; i++ {
		b := as.Alloc(SegSize, mem.OnNode(d.Node))
		in := as.Alloc(SegSize, mem.OnNode(d.Node))
		// Bounce buffers are reused constantly and stay LLC-hot.
		b.CacheResident = true
		in.CacheResident = true
		ep.bounce = append(ep.bounce, b)
		ep.inbox = append(ep.inbox, in)
	}
	if d.Mode == DSACopy {
		tn, err := d.Svc.NewTenant(offload.SharedSpace(as), offload.OnCore(core))
		if err != nil {
			return nil, err
		}
		ep.T = tn
	}
	return ep, nil
}

// Alloc allocates an application buffer in the endpoint's address space.
// Small buffers (≤16 KB) are marked LLC-resident: messaging benchmarks
// reuse them every iteration, so small messages run cache-hot — which is
// why the CPU wins below the ~32 KB crossover in Fig 17a.
func (ep *Endpoint) Alloc(n int64) *mem.Buffer {
	b := ep.AS.Alloc(n, mem.OnNode(ep.Dom.Node))
	if n <= 16<<10 {
		b.CacheResident = true
	}
	return b
}

// Send transfers n bytes from the local buffer src to the peer's dst using
// SAR: per segment, copy src→bounce (sender side) and inbox→dst (receiver
// side; SAR progress executes it on the initiating thread). In DSA mode the
// per-segment copies are issued asynchronously with a bounded window.
func (ep *Endpoint) Send(p *sim.Proc, peer *Endpoint, src *mem.Buffer, srcOff int64, dst *mem.Buffer, dstOff, n int64) error {
	type segmentJobs struct{ j1, j2 *offload.Future }
	ring := make([]segmentJobs, Window)
	waitSeg := func(s segmentJobs) error {
		for _, j := range []*offload.Future{s.j1, s.j2} {
			if j == nil {
				continue
			}
			if _, err := j.Wait(p, offload.Poll); err != nil {
				return err
			}
		}
		return nil
	}
	k := 0
	for off := int64(0); off < n; off += SegSize {
		seg := SegSize
		if off+seg > n {
			seg = n - off
		}
		slot := k % Window
		// Reclaim the slot from Window segments ago before reusing its
		// bounce/inbox buffers.
		if err := waitSeg(ring[slot]); err != nil {
			return err
		}
		if ep.Dom.Mode == CPUCopy {
			d1, err := ep.Core.Memcpy(ep.bounce[slot].Addr(0), src.Addr(srcOff+off), seg)
			if err != nil {
				return err
			}
			copy(peer.inbox[slot].Bytes()[:seg], src.Slice(srcOff+off, seg))
			d2, err := peer.Core.Memcpy(dst.Addr(dstOff+off), peer.inbox[slot].Addr(0), seg)
			if err != nil {
				return err
			}
			wall := d1
			if ep.SerializeCopies {
				// Every core is busy: its receive-side copy cannot
				// overlap its own send-side work.
				wall = d1 + d2
			} else if d2 > wall {
				// The peer core is idle and pipelines the receive copy.
				wall = d2
			}
			p.Sleep(wall)
			k++
			continue
		}
		// Sender-side copy: application → bounce.
		j1, err := ep.T.Copy(p, ep.bounce[slot].Addr(0), src.Addr(srcOff+off), seg, offload.On(offload.Hardware))
		if err != nil {
			return err
		}
		// The segment crosses the shared-memory hand-off into the peer's
		// inbox slot (functional payload flow).
		copy(peer.inbox[slot].Bytes()[:seg], src.Slice(srcOff+off, seg))
		// Receiver-side copy: inbox → application buffer.
		j2, err := peer.T.Copy(p, dst.Addr(dstOff+off), peer.inbox[slot].Addr(0), seg, offload.On(offload.Hardware))
		if err != nil {
			return err
		}
		ring[slot] = segmentJobs{j1, j2}
		k++
	}
	for _, s := range ring {
		if err := waitSeg(s); err != nil {
			return err
		}
	}
	ep.BytesSent += n
	return nil
}

// Pingpong measures the libfabric PP test: two endpoints exchange messages
// of size n for iters round trips. It returns one-way throughput in GB/s.
func Pingpong(d *Domain, n int64, iters int) (float64, error) {
	a, err := d.NewEndpoint()
	if err != nil {
		return 0, err
	}
	b, err := d.NewEndpoint()
	if err != nil {
		return 0, err
	}
	bufA := a.Alloc(n)
	bufB := b.Alloc(n)
	sim.NewRand(1).Bytes(bufA.Bytes())

	var elapsed sim.Time
	var runErr error
	d.E.Go("pingpong", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := a.Send(p, b, bufA, 0, bufB, 0, n); err != nil {
				runErr = err
				return
			}
			if err := b.Send(p, a, bufB, 0, bufA, 0, n); err != nil {
				runErr = err
				return
			}
		}
		elapsed = p.Now() - start
	})
	d.E.Run()
	if runErr != nil {
		return 0, runErr
	}
	oneWay := elapsed / sim.Time(2*iters)
	return sim.Rate(n, oneWay), nil
}

// RMA measures the remote-memory-access bandwidth test: a continuous
// one-direction stream of writes of size n, iters times. Returns GB/s.
func RMA(d *Domain, n int64, iters int) (float64, error) {
	a, err := d.NewEndpoint()
	if err != nil {
		return 0, err
	}
	b, err := d.NewEndpoint()
	if err != nil {
		return 0, err
	}
	bufA := a.Alloc(n)
	bufB := b.Alloc(n)
	sim.NewRand(2).Bytes(bufA.Bytes())

	var elapsed sim.Time
	var runErr error
	d.E.Go("rma", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := a.Send(p, b, bufA, 0, bufB, 0, n); err != nil {
				runErr = err
				return
			}
		}
		elapsed = p.Now() - start
	})
	d.E.Run()
	if runErr != nil {
		return 0, runErr
	}
	return sim.Rate(n*int64(iters), elapsed), nil
}
