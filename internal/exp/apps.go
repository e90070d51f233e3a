package exp

import (
	"fmt"
	"time"

	"dsasim/internal/cachesim"
	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/fabric"
	"dsasim/internal/report"
	"dsasim/internal/sim"
	"dsasim/internal/spdknvme"
	"dsasim/internal/vhost"
	"dsasim/internal/xmem"
)

// pollutionScenario identifies the Fig 12/13 co-running configurations.
type pollutionScenario int

const (
	scenNone pollutionScenario = iota
	scenSoftware
	scenDSA
)

func (s pollutionScenario) String() string {
	switch s {
	case scenSoftware:
		return "Software"
	case scenDSA:
		return "DSA"
	default:
		return "None"
	}
}

// runPollution runs 8 X-Mem probes of the given working set against the
// scenario's background copies and returns (avg latency, occupancy samples).
// The timeline is compressed relative to the paper's 60 s run: copiers run
// [0, 30ms], probes measure [5ms, 25ms], sampled every 1 ms.
func runPollution(scen pollutionScenario, ws int64) (time.Duration, *report.Table) {
	v := newEnv(1)
	llc := v.sys.SocketOf(0).LLC

	// The co-runners copy 4 KB buffers, as in the paper's setup (Fig 13
	// caption: transfer size 4 KB).
	const (
		copyStop  = 30 * time.Millisecond
		probeFrom = 5 * time.Millisecond
		probeTo   = 25 * time.Millisecond
		copySize  = 4 << 10
	)

	// Background copiers: four cores (software) or four DSA clients.
	if scen != scenNone {
		for c := 0; c < 4; c++ {
			c := c
			switch scen {
			case scenSoftware:
				core := cpu.NewCore(10+c, 0, v.sys, v.as, cpu.SPRModel())
				src := v.buf(copySize, v.node(0), false, 0)
				dst := v.buf(copySize, v.node(0), false, 0)
				v.e.Go(fmt.Sprintf("memcpy%d", c), func(p *sim.Proc) {
					for p.Now() < copyStop {
						d, err := core.Memcpy(dst.Addr(0), src.Addr(0), copySize)
						if err != nil {
							panic(err)
						}
						p.Sleep(d)
					}
				})
			case scenDSA:
				cl := dsa.NewClient(v.devs[0].WQs()[0], nil)
				src := v.buf(copySize, v.node(0), false, 0)
				dst := v.buf(copySize, v.node(0), false, 0)
				v.e.Go(fmt.Sprintf("dsacopy%d", c), func(p *sim.Proc) {
					for p.Now() < copyStop {
						comp, err := cl.Submit(p, dsa.Descriptor{
							Op: dsa.OpMemmove, Flags: dsa.FlagCacheControl, PASID: v.as.PASID,
							Src: src.Addr(0), Dst: dst.Addr(0), Size: copySize,
						})
						if err != nil {
							panic(err)
						}
						comp.Wait(p)
					}
				})
			}
		}
	}

	// Probes.
	probes := make([]*xmem.Probe, 8)
	for i := range probes {
		i := i
		v.e.Go(fmt.Sprintf("xmem%d", i), func(p *sim.Proc) {
			p.SleepUntil(probeFrom)
			probes[i] = xmem.NewProbe(llc, fmt.Sprintf("xmem%d", i), ws)
			for p.Now() < probeTo {
				probes[i].Step()
				p.Sleep(200 * time.Microsecond)
			}
		})
	}

	// Occupancy sampler.
	occ := report.New("fig12_"+scen.String(), "LLC occupancy over time ("+scen.String()+")", "ms", "MB")
	v.e.Go("sampler", func(p *sim.Proc) {
		for p.Now() < copyStop {
			var x int64
			for i := 0; i < 8; i++ {
				x += llc.Occupancy(fmt.Sprintf("xmem%d", i))
			}
			var bg int64
			for c := 0; c < 4; c++ {
				bg += llc.Occupancy(fmt.Sprintf("core%d", 10+c))
			}
			bg += llc.Occupancy(v.devs[0].Owner())
			ms := float64(p.Now()) / 1e6
			occ.Set("xmem", ms, float64(x)/(1<<20))
			occ.Set("copies", ms, float64(bg)/(1<<20))
			p.Sleep(time.Millisecond)
		}
	})
	v.e.Run()

	var total time.Duration
	var rounds int
	for _, pr := range probes {
		if pr == nil {
			continue
		}
		total += pr.Avg() * time.Duration(pr.Rounds())
		rounds += pr.Rounds()
	}
	if rounds == 0 {
		return 0, occ
	}
	return total / time.Duration(rounds), occ
}

// Fig12 reproduces the LLC occupancy timelines for the three co-running
// scenarios (4 MB probe working set).
func Fig12() []*report.Table {
	var out []*report.Table
	for _, s := range []pollutionScenario{scenNone, scenSoftware, scenDSA} {
		_, occ := runPollution(s, 4<<20)
		switch s {
		case scenSoftware:
			occ.Note("software memcpy dominates LLC occupancy (paper Fig 12b)")
		case scenDSA:
			occ.Note("DSA copies hold at most the DDIO partition (paper Fig 12c)")
		}
		out = append(out, occ)
	}
	return out
}

// Fig13 reproduces X-Mem latency across working sets for the three
// scenarios.
func Fig13() []*report.Table {
	t := report.New("fig13", "X-Mem average access latency under co-running copies", "ws", "ns")
	sets := []int64{2500 << 10, 5000 << 10, 7500 << 10, 10000 << 10, 12500 << 10, 15000 << 10}
	for _, scen := range []pollutionScenario{scenNone, scenSoftware, scenDSA} {
		for _, ws := range sets {
			lat, _ := runPollution(scen, ws)
			t.SetNamed(scen.String(), fmt.Sprintf("%dK", ws>>10), float64(ws), float64(lat))
		}
	}
	t.Note("software copies inflate probe latency (paper: +43%% at 4MB); DSA offload tracks the no-co-runner line (paper Fig 13)")
	return []*report.Table{t}
}

// Fig16 reproduces the DPDK Vhost forwarding-rate comparison.
func Fig16() []*report.Table {
	t := report.New("fig16", "Vhost packet forwarding rate", "pkt", "Mpps")
	sizes := []int64{64, 128, 256, 512, 1024, 1280, 1518}
	for _, mode := range []vhost.Mode{vhost.CPUCopy, vhost.DSACopy} {
		name := "CPU"
		if mode == vhost.DSACopy {
			name = "DSA"
		}
		for _, size := range sizes {
			v := newEnv(1)
			core := cpu.NewCore(0, 0, v.sys, v.as, cpu.SPRModel())
			vq := vhost.NewVirtqueue(v.as, v.node(0), 256, 2048)
			var wq *dsa.WQ
			if mode == vhost.DSACopy {
				wq = v.devs[0].WQs()[0]
			}
			b, err := vhost.NewBackend(mode, vq, core, v.as, wq)
			if err != nil {
				panic(err)
			}
			gen := vhost.NewGenerator(size, 42)
			bursts := 60
			var elapsed sim.Time
			v.e.Go("fwd", func(p *sim.Proc) {
				start := p.Now()
				for i := 0; i < bursts; i++ {
					pkts := gen.Burst(32)
					off := 0
					for off < len(pkts) {
						n, err := b.EnqueueBurst(p, pkts[off:])
						if err != nil {
							panic(err)
						}
						off += n
						for vq.UsedLen() > 0 {
							vq.PopUsed()
						}
						if n == 0 {
							p.Sleep(100 * time.Nanosecond)
						}
					}
				}
				b.Drain(p)
				elapsed = p.Now() - start
			})
			v.e.Run()
			mpps := float64(bursts*32) / (float64(elapsed) / 1e3)
			t.Set(name, float64(size), mpps)
			if !b.InOrder() {
				t.Note("WARNING: %s at %dB delivered packets out of order", name, size)
			}
		}
	}
	t.Note("CPU rate falls with packet size; DSA stays flat and wins ≥256B by 1.14–2.29x (paper Fig 16b)")
	return []*report.Table{t}
}

// fabricDomain builds a fresh fabric domain; DSA mode uses the socket's
// full four DSA instances.
func fabricDomain(mode fabric.Mode) *fabric.Domain {
	ndev := 0
	if mode == fabric.DSACopy {
		ndev = 4
	}
	v := newEnv(ndev, dsa.GroupConfig{
		Engines: 4,
		WQs:     []dsa.WQConfig{{Mode: dsa.Shared, Size: 64}},
	})
	var wqs []*dsa.WQ
	for _, dev := range v.devs {
		wqs = append(wqs, dev.WQs()...)
	}
	d, err := fabric.NewDomain(v.e, v.sys, v.node(0), cpu.SPRModel(), mode, wqs)
	if err != nil {
		panic(err)
	}
	return d
}

// Fig17a reproduces the libfabric pingpong and RMA throughput curves.
func Fig17a() []*report.Table {
	t := report.New("fig17a", "libfabric SAR pingpong / RMA throughput", "msg", "GB/s")
	sizes := []int64{8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20}
	for _, size := range sizes {
		cpp, err := fabric.Pingpong(fabricDomain(fabric.CPUCopy), size, 6)
		if err != nil {
			panic(err)
		}
		dpp, err := fabric.Pingpong(fabricDomain(fabric.DSACopy), size, 6)
		if err != nil {
			panic(err)
		}
		crma, err := fabric.RMA(fabricDomain(fabric.CPUCopy), size, 6)
		if err != nil {
			panic(err)
		}
		drma, err := fabric.RMA(fabricDomain(fabric.DSACopy), size, 6)
		if err != nil {
			panic(err)
		}
		t.Set("CPU PP", float64(size), cpp)
		t.Set("DSA PP", float64(size), dpp)
		t.Set("CPU RMA", float64(size), crma)
		t.Set("DSA RMA", float64(size), drma)
	}
	t.Note("DSA overtakes the CPU beyond ~32KB messages (paper Fig 17a)")
	return []*report.Table{t}
}

// Fig17b reproduces the OSU-style bandwidth improvement and AllReduce
// speedups.
func Fig17b() []*report.Table {
	t := report.New("fig17b", "OSU bandwidth improvement and AllReduce speedup", "msg", "DSA/CPU ratio")
	sizes := []int64{1 << 20, 4 << 20, 16 << 20}
	for _, size := range sizes {
		cbw, err := fabric.RMA(fabricDomain(fabric.CPUCopy), size, 4)
		if err != nil {
			panic(err)
		}
		dbw, err := fabric.RMA(fabricDomain(fabric.DSACopy), size, 4)
		if err != nil {
			panic(err)
		}
		t.Set("BW", float64(size), dbw/cbw)
		for _, ranks := range []int{2, 4, 8} {
			car, err := fabric.AllReduce(fabricDomain(fabric.CPUCopy), ranks, size, 1)
			if err != nil {
				panic(err)
			}
			dar, err := fabric.AllReduce(fabricDomain(fabric.DSACopy), ranks, size, 1)
			if err != nil {
				panic(err)
			}
			t.Set(fmt.Sprintf("AR,R:%d", ranks), float64(size), float64(car.Duration)/float64(dar.Duration))
		}
	}
	t.Note("BW reads 6.59–7.53x over 1M–16M, above the paper's ~5x at large messages; AllReduce reads 7.44–8.15x at 2 ranks, 3.76–4.08x at 4 and 1.88–2.04x at 8, against a CPU baseline whose idle peer core overlaps the receive-side copy")
	return []*report.Table{t}
}

// Fig18 reproduces the BERT phase timings.
func Fig18() []*report.Table {
	t := report.New("fig18", "BERT pretraining phase timings", "phase", "seconds/iteration")
	for _, ranks := range []int{2, 8} {
		for _, mode := range []fabric.Mode{fabric.CPUCopy, fabric.DSACopy} {
			name := "CPU"
			if mode == fabric.DSACopy {
				name = "DSA"
			}
			res, err := fabric.BERT(fabricDomain(mode), fabric.BERTConfig{Ranks: ranks, SimBytes: 8 << 20})
			if err != nil {
				panic(err)
			}
			series := fmt.Sprintf("%s,R:%d", name, ranks)
			t.SetNamed(series, "AR", 0, res.AllReduce.Seconds())
			t.SetNamed(series, "FT", 1, res.Forward.Seconds())
			t.SetNamed(series, "BT", 2, res.Backward.Seconds())
			t.SetNamed(series, "TT", 3, res.Total.Seconds())
		}
	}
	t.Note("only the AllReduce phase changes with the copy engine; end-to-end gains are single-digit percent (paper Fig 18, §A)")
	return []*report.Table{t}
}

// Fig19 reproduces the CacheLib rate and tail-latency grids.
func Fig19() []*report.Table {
	rate := report.New("fig19_rate", "CacheBench op rate, DSA relative to CPU", "config", "relative rate")
	tail := report.New("fig19_tail", "CacheBench p99.999 latency, DSA relative to CPU", "config", "relative latency")
	cfgs := []struct{ h, s int }{
		{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16},
		{1, 2}, {2, 4}, {4, 8}, {8, 16}, {16, 32},
		{1, 4}, {2, 8}, {4, 16}, {8, 32}, {16, 64},
	}
	for i, c := range cfgs {
		name := fmt.Sprintf("%dh%ds", c.h, c.s)
		run := func(useDSA bool) cachesim.Result {
			cfg := cachesim.Config{
				HWCores: c.h, Threads: c.s, OpsPerThd: 300,
				CacheSize: 64 << 20, Seed: uint64(100 + i),
			}
			ndev := 0
			if useDSA {
				ndev = 1
			}
			// The paper's setup: four shared WQs, one group+engine each.
			g := dsa.GroupConfig{Engines: 1, WQs: []dsa.WQConfig{{Mode: dsa.Shared, Size: 16}}}
			v := newEnv(ndev, g, g, g, g)
			if useDSA {
				cfg.WQs = v.devs[0].WQs()
			}
			res, err := cachesim.Run(v.e, v.sys, v.node(0), cpu.SPRModel(), cfg)
			if err != nil {
				panic(err)
			}
			return res
		}
		cpuRes := run(false)
		dsaRes := run(true)
		x := float64(i)
		rate.SetNamed("DSA Get", name, x, dsaRes.GetRate/cpuRes.GetRate)
		rate.SetNamed("DSA Set", name, x, dsaRes.SetRate/cpuRes.SetRate)
		rate.SetNamed("CPU", name, x, 1)
		tail.SetNamed("DSA Find", name, x, float64(dsaRes.FindTail)/float64(cpuRes.FindTail))
		tail.SetNamed("DSA Alloc", name, x, float64(dsaRes.AllocTail)/float64(cpuRes.AllocTail))
		tail.SetNamed("CPU", name, x, 1)
	}
	rate.Note("offloading ≥8KB copies lifts get/set rates; gains shrink when threads far exceed the four WQs (paper Fig 19a)")
	tail.Note("up to 8 threads DSA cuts the Find/Alloc tail to 0.19-0.75x CPU, but at 16 threads it rises above CPU " +
		"(1.79x/1.95x at 16h16s, 1.53x/1.39x at 16h32s), which disagrees with paper Fig 19b, where the tail falls with DSA")
	return []*report.Table{rate, tail}
}

// Fig21 reproduces the SPDK NVMe/TCP target IOPS scaling.
func Fig21() []*report.Table {
	var out []*report.Table
	for _, wl := range []struct {
		name string
		size int64
	}{{"16KB random reads", 16 << 10}, {"128KB sequential reads", 128 << 10}} {
		t := report.New("fig21_"+report.FormatBytes(float64(wl.size)), "SPDK NVMe/TCP target: "+wl.name, "cores", "relative IOPS")
		// Normalize to the NoDigest 8-core ceiling, as the paper does.
		var ceiling float64
		for _, mode := range []spdknvme.DigestMode{spdknvme.NoDigest, spdknvme.ISAL, spdknvme.DSA} {
			for cores := 1; cores <= 8; cores++ {
				v := newEnv(1, dsa.GroupConfig{
					Engines: 4,
					WQs:     []dsa.WQConfig{{Mode: dsa.Shared, Size: 64}},
				})
				cfg := spdknvme.Config{
					TargetCores: cores, IOSize: wl.size, Mode: mode, IOs: 1200, Seed: 7,
				}
				if mode == spdknvme.DSA {
					cfg.WQs = v.devs[0].WQs()
				}
				res, err := spdknvme.Run(v.e, v.sys, v.node(0), cpu.SPRModel(), cfg)
				if err != nil {
					panic(err)
				}
				if mode == spdknvme.NoDigest && cores == 8 {
					ceiling = res.IOPS
				}
				t.Set(mode.String(), float64(cores), res.IOPS)
				if res.Mismatched > 0 {
					t.Note("WARNING: %d digest mismatches (%s, %d cores)", res.Mismatched, mode, cores)
				}
			}
		}
		// Second pass to normalize (ceiling known only after NoDigest@8).
		norm := report.New(t.ID, t.Title, "cores", "relative IOPS")
		for _, s := range t.Series() {
			for _, x := range t.Xs() {
				if val, ok := t.Get(s, x); ok {
					norm.Set(s, x, val/ceiling)
				}
			}
		}
		norm.Note("DSA tracks NoDigest; ISA-L needs several more cores to saturate (paper Fig 21)")
		out = append(out, norm)
	}
	return out
}
