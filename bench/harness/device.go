package main

import (
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// device-4k operating point: the paper's Fig 3/4 async copy — 4 KB
// memmoves through one 32-entry dedicated WQ in front of all four engines
// of one SPR DSA, 32 descriptors in flight, completions polled.
const (
	devXfer  = 4 << 10
	devQD    = 32
	devSlots = 64 // payload slots the descriptors rotate through
)

// sprSystem is the two-socket SPR memory system (Table 2 DRAM latencies
// and bandwidths), the one the fleet rig runs on.
func sprSystem(e *sim.Engine) *mem.System {
	dram := func(socket int) mem.NodeConfig {
		return mem.NodeConfig{Socket: socket, Kind: mem.DRAM,
			ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75}
	}
	return mem.NewSystem(e, mem.SystemConfig{
		Sockets:  2,
		LLC:      mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:   70 * time.Nanosecond,
		UPIGBps:  62,
		NodeDefs: []mem.NodeConfig{dram(0), dram(1)},
	})
}

// deviceRig is device-4k's platform and inputs; the ladder's dsa rungs
// run on it too.
type deviceRig struct {
	e        *sim.Engine
	dev      *dsa.Device
	as       *mem.AddressSpace
	src, dst *mem.Buffer
	lat      []sim.Time // per-descriptor submit→completion latency
}

// newDeviceRig builds the device on socket 0, binds one address space to
// it, and fills the source slots with bytes seeded by seed.
func newDeviceRig(seed uint64) *deviceRig {
	e := sim.New()
	sys := sprSystem(e)
	as := mem.NewAddressSpace(1)
	dev := dsa.New(e, sys, dsa.DefaultConfig("dsa0", 0))
	if _, err := dev.AddGroup(dsa.GroupConfig{
		Engines: 4,
		WQs:     []dsa.WQConfig{{Mode: dsa.Dedicated, Size: devQD}},
	}); err != nil {
		panic(err)
	}
	if err := dev.Enable(); err != nil {
		panic(err)
	}
	dev.BindPASID(as)
	r := &deviceRig{e: e, dev: dev, as: as,
		src: as.Alloc(devSlots*devXfer, mem.OnNode(sys.Node(0))),
		dst: as.Alloc(devSlots*devXfer, mem.OnNode(sys.Node(0))),
	}
	sim.NewRand(0xD5A_4C0B7 + seed).Bytes(r.src.Bytes())
	return r
}

// deviceResult is one device-4k repeat's simulated outcome.
type deviceResult struct {
	Descriptors int64
	Failed      int64    // completions with a non-success status
	Elapsed     sim.Time // first submit to last completion
	P99         sim.Time // descriptor latency, exact nearest rank
	BusyFrac    float64  // mean engine busy time / elapsed
	Stats       dsa.DeviceStats
	DstCRC      uint32
}

// run drives n descriptors through the closed loop and returns the
// outcome. Descriptor i copies source slot i mod devSlots onto the same
// destination slot, so the destination ends equal to the source.
func (r *deviceRig) run(n int) deviceResult {
	cl := dsa.NewClient(r.dev.WQs()[0], nil)
	if cap(r.lat) < n {
		r.lat = make([]sim.Time, 0, n)
	}
	r.lat = r.lat[:0]
	res := deviceResult{Descriptors: int64(n)}
	reap := func(p *sim.Proc, c *dsa.Completion) {
		cl.Wait(p, c, dsa.Poll)
		if c.Record().Status != dsa.StatusSuccess {
			res.Failed++
		}
		r.lat = append(r.lat, c.Latency())
	}
	var start, end sim.Time
	r.e.Go("device-4k", func(p *sim.Proc) {
		start = p.Now()
		window := make([]*dsa.Completion, 0, devQD)
		for i := 0; i < n; i++ {
			off := int64(i%devSlots) * devXfer
			cl.Prepare(p)
			c, err := cl.Submit(p, dsa.Descriptor{Op: dsa.OpMemmove, PASID: r.as.PASID,
				Src: r.src.Addr(off), Dst: r.dst.Addr(off), Size: devXfer})
			if err != nil {
				panic(err)
			}
			if len(window) == devQD {
				reap(p, window[0])
				window = append(window[:0], window[1:]...)
			}
			window = append(window, c)
		}
		for _, c := range window {
			reap(p, c)
		}
		end = p.Now()
	})
	r.e.Run()
	res.Elapsed = end - start
	res.Stats = r.dev.Stats()
	var busy sim.Time
	engines := r.dev.Groups()[0].Engines
	for _, eng := range engines {
		busy += eng.BusyTime()
	}
	res.BusyFrac = float64(busy) / float64(len(engines)) / float64(res.Elapsed)
	slices.Sort(r.lat)
	res.P99 = r.lat[(99*len(r.lat)+99)/100-1]
	res.DstCRC = crc32.ChecksumIEEE(r.dst.Bytes())
	return res
}

// verify checks a repeat's functional output: every descriptor completed
// successfully, the device counted each one, and every written
// destination slot holds its source slot's bytes.
func (r *deviceRig) verify(res deviceResult) error {
	if res.Failed != 0 {
		return fmt.Errorf("device-4k: %d of %d descriptors completed with an error", res.Failed, res.Descriptors)
	}
	if res.Stats.Completed != res.Descriptors {
		return fmt.Errorf("device-4k: device completed %d descriptors, %d submitted", res.Stats.Completed, res.Descriptors)
	}
	written := int64(devSlots) * devXfer
	if res.Descriptors < devSlots {
		written = res.Descriptors * devXfer
	}
	if err := sameBytes(r.src.Bytes()[:written], r.dst.Bytes()[:written]); err != nil {
		return fmt.Errorf("device-4k: %w", err)
	}
	return nil
}

// gbps is the repeat's simulated copy bandwidth.
func (res deviceResult) gbps() float64 {
	return sim.Rate(res.Descriptors*devXfer, res.Elapsed)
}
