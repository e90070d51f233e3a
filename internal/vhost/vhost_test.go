package vhost

import (
	"bytes"
	"testing"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

type rig struct {
	e    *sim.Engine
	sys  *mem.System
	as   *mem.AddressSpace
	core *cpu.Core
	wq   *dsa.WQ
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 1,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
	dev := dsa.New(e, sys, dsa.DefaultConfig("dsa0", 0))
	if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}}}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddressSpace(1)
	core := cpu.NewCore(0, 0, sys, as, cpu.SPRModel())
	return &rig{e: e, sys: sys, as: as, core: core, wq: dev.WQs()[0]}
}

// forward pushes bursts×32 packets of size through a backend and returns
// achieved Mpps.
func forward(t *testing.T, r *rig, mode Mode, size int64, bursts int) (float64, *Backend) {
	t.Helper()
	vq := NewVirtqueue(r.as, r.sys.Node(0), 256, 2048)
	var wq *dsa.WQ
	if mode == DSACopy {
		wq = r.wq
	}
	b, err := NewBackend(mode, vq, r.core, r.as, wq)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(size, 42)
	var elapsed sim.Time
	r.e.Go("fwd", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < bursts; i++ {
			pkts := gen.Burst(32)
			off := 0
			for off < len(pkts) {
				n, err := b.EnqueueBurst(p, pkts[off:])
				if err != nil {
					t.Error(err)
					return
				}
				if n == 0 {
					// Ring full: drain the guest side.
					for vq.UsedLen() > 0 {
						vq.PopUsed()
					}
					if mode == DSACopy {
						b.reap(p)
					}
					p.Sleep(100 * time.Nanosecond)
					continue
				}
				off += n
				for vq.UsedLen() > 0 {
					vq.PopUsed()
				}
			}
		}
		b.Drain(p)
		elapsed = p.Now() - start
	})
	r.e.Run()
	pkts := float64(bursts * 32)
	return pkts / (float64(elapsed) / 1e3), b // packets per µs == Mpps
}

func TestPacketsArriveIntactCPU(t *testing.T) {
	r := newRig(t)
	vq := NewVirtqueue(r.as, r.sys.Node(0), 64, 2048)
	b, err := NewBackend(CPUCopy, vq, r.core, r.as, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(1024, 7)
	pkts := gen.Burst(16)
	r.e.Go("fwd", func(p *sim.Proc) {
		n, err := b.EnqueueBurst(p, pkts)
		if err != nil || n != 16 {
			t.Errorf("EnqueueBurst = %d, %v", n, err)
		}
	})
	r.e.Run()
	for i := 0; i < 16; i++ {
		ue, ok := vq.PopUsed()
		if !ok {
			t.Fatalf("used ring short at %d", i)
		}
		if ue.Seq != uint64(i) {
			t.Fatalf("out of order: got seq %d at %d", ue.Seq, i)
		}
		if !bytes.Equal(vq.Buffers[ue.Desc].Slice(0, ue.Len), pkts[i].Data) {
			t.Fatalf("packet %d corrupted", i)
		}
	}
}

func TestPacketsArriveIntactAndOrderedDSA(t *testing.T) {
	r := newRig(t)
	vq := NewVirtqueue(r.as, r.sys.Node(0), 128, 2048)
	b, err := NewBackend(DSACopy, vq, r.core, r.as, r.wq)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(512, 9)
	var sent []*Packet
	r.e.Go("fwd", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			pkts := gen.Burst(32)
			sent = append(sent, pkts...)
			if n, err := b.EnqueueBurst(p, pkts); err != nil || n != 32 {
				t.Errorf("burst %d: %d, %v", i, n, err)
				return
			}
		}
		b.Drain(p)
	})
	r.e.Run()
	if !b.InOrder() {
		t.Fatal("used ring written out of order")
	}
	if b.Forwarded != uint64(len(sent)) {
		t.Fatalf("forwarded %d of %d", b.Forwarded, len(sent))
	}
	for i := range sent {
		ue, ok := vq.PopUsed()
		if !ok || ue.Seq != uint64(i) {
			t.Fatalf("used entry %d: ok=%v seq=%d", i, ok, ue.Seq)
		}
		if !bytes.Equal(vq.Buffers[ue.Desc].Slice(0, ue.Len), sent[i].Data) {
			t.Fatalf("packet %d corrupted", i)
		}
	}
}

func TestCPURateFallsWithPacketSizeDSAFlat(t *testing.T) {
	// Fig 16b shape: CPU forwarding drops with packet size; DSA stays
	// nearly constant and wins above ~256B.
	r1 := newRig(t)
	cpu64, _ := forward(t, r1, CPUCopy, 64, 40)
	r2 := newRig(t)
	cpu1518, _ := forward(t, r2, CPUCopy, 1518, 40)
	r3 := newRig(t)
	dsa64, _ := forward(t, r3, DSACopy, 64, 40)
	r4 := newRig(t)
	dsa1518, _ := forward(t, r4, DSACopy, 1518, 40)

	if cpu1518 >= cpu64/2 {
		t.Fatalf("CPU rate should drop sharply with size: 64B %.2f vs 1518B %.2f Mpps", cpu64, cpu1518)
	}
	flat := dsa1518 / dsa64
	if flat < 0.7 || flat > 1.3 {
		t.Fatalf("DSA rate should stay near-constant: 64B %.2f vs 1518B %.2f Mpps", dsa64, dsa1518)
	}
	if dsa1518 < 1.14*cpu1518 {
		t.Fatalf("DSA at 1518B (%.2f) should beat CPU (%.2f) by ≥1.14×", dsa1518, cpu1518)
	}
	if cpu64 < dsa64 {
		t.Fatalf("CPU should win at 64B: %.2f vs %.2f", cpu64, dsa64)
	}
}

func TestRingFullDropsGracefully(t *testing.T) {
	r := newRig(t)
	vq := NewVirtqueue(r.as, r.sys.Node(0), 8, 2048)
	b, err := NewBackend(CPUCopy, vq, r.core, r.as, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(256, 3)
	r.e.Go("fwd", func(p *sim.Proc) {
		n, err := b.EnqueueBurst(p, gen.Burst(32))
		if err != nil {
			t.Error(err)
		}
		if n != 8 {
			t.Errorf("accepted %d with an 8-slot ring, want 8", n)
		}
	})
	r.e.Run()
}
