// Package vhost reimplements the paper's DPDK Vhost case study (§6.4, Fig
// 16): a VirtIO backend moving packets between host buffers and guest (VM)
// memory through a virtqueue, with packet copies executed either by the CPU
// or offloaded to DSA using the paper's optimized design — a three-stage
// software pipeline, one batch descriptor per 32-packet burst (G1/G2), and
// a reorder ("recording") array that preserves in-order used-ring
// write-back when completions arrive out of order.
package vhost

import (
	"fmt"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Mode selects the packet-copy engine.
type Mode int

// Copy modes.
const (
	// CPUCopy copies packets with the core (the baseline in Fig 16b).
	CPUCopy Mode = iota
	// DSACopy offloads packet copies as batch descriptors.
	DSACopy
)

// Packet is one network packet with a sequence number for ordering checks.
type Packet struct {
	Seq  uint64
	Data []byte
}

// Virtqueue is the guest-shared descriptor ring: a table of guest buffers,
// an available ring of free buffer indices, and a used ring of filled ones.
type Virtqueue struct {
	Buffers []*mem.Buffer // guest memory, one per descriptor slot
	avail   sim.FIFO[int]
	used    sim.FIFO[UsedElem]
}

// UsedElem is one used-ring entry: which descriptor completed and the
// sequence number of the packet written to it.
type UsedElem struct {
	Desc int
	Seq  uint64
	Len  int64
}

// NewVirtqueue allocates a ring of size slots of bufSize guest memory each.
func NewVirtqueue(as *mem.AddressSpace, node *mem.Node, size int, bufSize int64) *Virtqueue {
	vq := &Virtqueue{}
	for i := 0; i < size; i++ {
		vq.Buffers = append(vq.Buffers, as.Alloc(bufSize, mem.OnNode(node)))
		vq.avail.Push(i)
	}
	return vq
}

// PopUsed removes the next used element, as the guest driver would, and
// returns the descriptor to the available ring (the guest has consumed the
// packet and refilled the buffer).
func (vq *Virtqueue) PopUsed() (UsedElem, bool) {
	ue, ok := vq.used.Pop()
	if ok {
		vq.recycle(ue.Desc)
	}
	return ue, ok
}

// UsedLen returns the used-ring backlog.
func (vq *Virtqueue) UsedLen() int { return vq.used.Len() }

// recycle returns a descriptor to the available ring (guest refilled it).
func (vq *Virtqueue) recycle(desc int) { vq.avail.Push(desc) }

// Costs holds the backend's per-stage CPU costs, calibrated to the paper's
// §6.4 profile: packet copying is 30% of CPU cycles at 512 B and 50+% above
// 1024 B for the CPU backend, and the DSA backend's rate is bound by the
// descriptor-management pipeline rather than the copy (Fig 16b flatness).
type Costs struct {
	// FetchDesc is the per-packet cost of reading an available descriptor
	// and its buffer address (step 1 of enqueue).
	FetchDesc time.Duration
	// Protocol is the per-packet virtio/mbuf bookkeeping cost.
	Protocol time.Duration
	// UsedWriteBack is the per-packet used-ring write cost (step 3).
	UsedWriteBack time.Duration
	// PrepareDSA is the per-packet cost of assembling a DSA work
	// descriptor in the batch array (DSA mode only).
	PrepareDSA time.Duration
	// ReorderScan is the per-packet cost of scanning the recording array
	// for completed copies (DSA mode only).
	ReorderScan time.Duration
}

// DefaultCosts returns the calibration used for Fig 16.
func DefaultCosts() Costs {
	return Costs{
		FetchDesc:     35 * time.Nanosecond,
		Protocol:      55 * time.Nanosecond,
		UsedWriteBack: 30 * time.Nanosecond,
		PrepareDSA:    95 * time.Nanosecond,
		ReorderScan:   65 * time.Nanosecond,
	}
}

// Backend is the Vhost enqueue path for one virtqueue.
type Backend struct {
	Mode  Mode
	VQ    *Virtqueue
	Core  *cpu.Core
	AS    *mem.AddressSpace
	Costs Costs

	// DSA mode state.
	client  *dsa.Client
	stage   []*mem.Buffer // host-side staging buffers, one per VQ slot
	pending []pendingCopy // the recording array (§6.4 packet ordering)

	// Stats.
	Forwarded uint64
	Bytes     int64
	nextSeq   uint64 // next sequence expected in the used ring (order check)
	ordered   bool
}

// pendingCopy tracks one in-flight burst's batch completion in the
// recording array.
type pendingCopy struct {
	comp  *dsa.Completion
	descs []int
	seqs  []uint64
	sizes []int64
}

// NewBackend builds a backend. wq may be nil for CPUCopy mode.
func NewBackend(mode Mode, vq *Virtqueue, core *cpu.Core, as *mem.AddressSpace, wq *dsa.WQ) (*Backend, error) {
	b := &Backend{Mode: mode, VQ: vq, Core: core, AS: as, Costs: DefaultCosts(), ordered: true}
	if mode == DSACopy {
		if wq == nil {
			return nil, fmt.Errorf("vhost: DSA mode needs a work queue")
		}
		wq.Dev.BindPASID(as)
		b.client = dsa.NewClient(wq, core)
		// Host-side packet staging (mbuf) pool, one per ring slot.
		for _, gb := range vq.Buffers {
			b.stage = append(b.stage, as.Alloc(gb.Size, mem.OnNode(gb.Node)))
		}
	}
	return b, nil
}

// InOrder reports whether every used-ring write-back so far was in packet
// sequence order (the §6.4 reorder-array guarantee).
func (b *Backend) InOrder() bool { return b.ordered }

// EnqueueBurst processes one burst of packets through the three-stage
// pipeline, returning how many packets were accepted (the rest are dropped,
// as a full ring drops packets in DPDK).
func (b *Backend) EnqueueBurst(p *sim.Proc, pkts []*Packet) (int, error) {
	switch b.Mode {
	case DSACopy:
		return b.enqueueDSA(p, pkts)
	default:
		return b.enqueueCPU(p, pkts)
	}
}

// enqueueCPU is the baseline: fetch, copy on core, write back, per packet.
func (b *Backend) enqueueCPU(p *sim.Proc, pkts []*Packet) (int, error) {
	accepted := 0
	for _, pkt := range pkts {
		desc, ok := b.VQ.avail.Pop()
		if !ok {
			break
		}
		busy := b.Costs.FetchDesc + b.Costs.Protocol + b.Costs.UsedWriteBack
		p.Sleep(busy)
		b.Core.ChargeBusy(busy)
		buf := b.VQ.Buffers[desc]
		copy(buf.Bytes(), pkt.Data)
		dur := b.copyCost(int64(len(pkt.Data)), buf)
		p.Sleep(dur)
		b.Core.ChargeBusy(dur)
		b.completeUsed(desc, pkt.Seq, int64(len(pkt.Data)))
		accepted++
	}
	return accepted, nil
}

// copyCost models the packet copy on the core: guest buffers are cold (VM
// memory), so the cold curve applies.
func (b *Backend) copyCost(n int64, _ *mem.Buffer) time.Duration {
	return sim.GBps(n, b.Core.M.Cold.At(n))
}

// enqueueDSA is the paper's optimized pipeline:
//  1. Reap completions from earlier bursts and write back used descriptors
//     in order via the recording array.
//  2. Fetch available descriptors, assemble one batch descriptor for the
//     whole burst, submit it, and continue (asynchronous, G2).
func (b *Backend) enqueueDSA(p *sim.Proc, pkts []*Packet) (int, error) {
	b.reap(p)

	var descs []int
	var seqs []uint64
	var sizes []int64
	var subs []dsa.Descriptor
	for _, pkt := range pkts {
		desc, ok := b.VQ.avail.Pop()
		if !ok {
			break
		}
		busy := b.Costs.FetchDesc + b.Costs.Protocol + b.Costs.PrepareDSA + b.Costs.ReorderScan
		p.Sleep(busy)
		b.Core.ChargeBusy(busy)

		// Stage the packet in the host mbuf for this slot: the copy the
		// NIC already performed; DSA then moves it into guest memory.
		buf := b.VQ.Buffers[desc]
		stage := b.stage[desc]
		copy(stage.Bytes(), pkt.Data)
		subs = append(subs, dsa.Descriptor{
			Op: dsa.OpMemmove,
			// G3: packets are consumed promptly by the VM — keep them in
			// the LLC.
			Flags: dsa.FlagCacheControl,
			Src:   stage.Addr(0),
			Dst:   buf.Addr(0),
			Size:  int64(len(pkt.Data)),
		})
		descs = append(descs, desc)
		seqs = append(seqs, pkt.Seq)
		sizes = append(sizes, int64(len(pkt.Data)))
	}
	if len(subs) == 0 {
		return 0, nil
	}
	var comp *dsa.Completion
	var err error
	if len(subs) == 1 {
		d := subs[0]
		d.PASID = b.AS.PASID
		comp, err = b.client.Submit(p, d)
	} else {
		comp, err = b.client.Submit(p, dsa.Descriptor{Op: dsa.OpBatch, PASID: b.AS.PASID, Descs: subs})
	}
	if err != nil {
		return 0, err
	}
	b.pending = append(b.pending, pendingCopy{comp: comp, descs: descs, seqs: seqs, sizes: sizes})
	return len(subs), nil
}

// reap writes back used descriptors for completed copies, stopping at the
// first uncompleted burst so packets are never reordered.
func (b *Backend) reap(p *sim.Proc) {
	for len(b.pending) > 0 {
		head := b.pending[0]
		if !head.comp.Done() {
			return
		}
		busy := time.Duration(len(head.descs)) * b.Costs.UsedWriteBack
		p.Sleep(busy)
		b.Core.ChargeBusy(busy)
		for i, desc := range head.descs {
			b.completeUsed(desc, head.seqs[i], head.sizes[i])
		}
		b.pending = b.pending[1:]
	}
}

// Drain waits for all in-flight copies and writes back their descriptors.
func (b *Backend) Drain(p *sim.Proc) {
	for len(b.pending) > 0 {
		b.pending[0].comp.Wait(p)
		b.reap(p)
	}
}

// completeUsed records a used-ring entry; the guest recycles the descriptor
// when it pops the entry.
func (b *Backend) completeUsed(desc int, seq uint64, n int64) {
	if seq != b.nextSeq {
		b.ordered = false
	}
	b.nextSeq = seq + 1
	b.VQ.used.Push(UsedElem{Desc: desc, Seq: seq, Len: n})
	b.Forwarded++
	b.Bytes += n
}

// Generator produces packets of a fixed size with sequential payloads.
type Generator struct {
	Size int64
	next uint64
	rng  *sim.Rand
}

// NewGenerator creates a packet generator.
func NewGenerator(size int64, seed uint64) *Generator {
	return &Generator{Size: size, rng: sim.NewRand(seed)}
}

// Burst returns n fresh packets.
func (g *Generator) Burst(n int) []*Packet {
	pkts := make([]*Packet, n)
	for i := range pkts {
		data := make([]byte, g.Size)
		g.rng.Bytes(data)
		pkts[i] = &Packet{Seq: g.next, Data: data}
		g.next++
	}
	return pkts
}
