package exp

import (
	"fmt"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/platform"
	"dsasim/internal/report"
	"dsasim/internal/sim"
)

// placement runs the Fig 6/15 pattern: sync copies between two placements,
// reporting CPU and DSA throughput and latency per transfer size.
func placement(id, title string, combos []struct {
	name             string
	srcNode, dstNode int
	srcLLC, dstLLC   bool
	flags            dsa.Flags
}) []*report.Table {
	tp := report.New(id+"_tp", title+" (throughput)", "xfer", "GB/s")
	lat := report.New(id+"_lat", title+" (latency)", "xfer", "µs")
	for _, c := range combos {
		for _, size := range stdSizes {
			v := newEnv(1)
			res := v.runCopy(copyCfg{
				size: size, count: 30, qd: 1, flags: c.flags,
				srcNode: v.node(c.srcNode), dstNode: v.node(c.dstNode),
				srcLLC: c.srcLLC, dstLLC: c.dstLLC,
			})
			tp.Set("DSA:"+c.name, float64(size), res.gbps)
			lat.Set("DSA:"+c.name, float64(size), float64(res.avgLat)/1e3)

			vc := newEnv(0)
			d := vc.swTime(dsa.OpMemmove, size, vc.node(c.srcNode), vc.node(c.dstNode), c.srcLLC, c.dstLLC)
			tp.Set("CPU:"+c.name, float64(size), sim.Rate(size, d))
			lat.Set("CPU:"+c.name, float64(size), float64(d)/1e3)
		}
	}
	return []*report.Table{tp, lat}
}

// Fig6a reproduces local/remote socket placement (synchronous, batch 1).
func Fig6a() []*report.Table {
	ts := placement("fig6a", "Copy between local (L) and remote (R) sockets", []struct {
		name             string
		srcNode, dstNode int
		srcLLC, dstLLC   bool
		flags            dsa.Flags
	}{
		{"L,L", 0, 0, false, false, 0},
		{"L,R", 0, 1, false, false, 0},
		{"R,L", 1, 0, false, false, 0},
		{"R,R", 1, 1, false, false, 0},
	})
	ts[0].Note("DSA pipelining hides UPI latency: remote throughput ≈ local (paper Fig 6a)")
	ts[1].Note("latency break-even with the CPU falls between 4–10KB")
	return ts
}

// Fig6b reproduces DRAM/CXL placement.
func Fig6b() []*report.Table {
	ts := placement("fig6b", "Copy between DRAM (D) and CXL (C)", []struct {
		name             string
		srcNode, dstNode int
		srcLLC, dstLLC   bool
		flags            dsa.Flags
	}{
		{"D,D", 0, 0, false, false, 0},
		{"D,C", 0, 2, false, false, 0},
		{"C,D", 2, 0, false, false, 0},
		{"C,C", 2, 2, false, false, 0},
	})
	ts[0].Note("CXL writes are slower than reads, so D,C trails C,D (paper Fig 6b, guideline G4)")
	return ts
}

// Fig15 reproduces LLC-resident vs DRAM source/destination placement.
func Fig15() []*report.Table {
	ts := placement("fig15", "Copy between LLC (L) and local DRAM (D)", []struct {
		name             string
		srcNode, dstNode int
		srcLLC, dstLLC   bool
		flags            dsa.Flags
	}{
		{"L,L", 0, 0, true, true, dsa.FlagCacheControl},
		{"L,D", 0, 0, true, false, 0},
		{"D,L", 0, 0, false, true, dsa.FlagCacheControl},
		{"D,D", 0, 0, false, false, 0},
	})
	ts[0].Note("cache-resident operands favor the CPU below ~4KB; DSA wins beyond (guideline G3)")
	return ts
}

// Fig8 reproduces the huge-page sweep.
func Fig8() []*report.Table {
	t := report.New("fig8", "Async copy throughput vs page size", "xfer", "GB/s")
	pages := []struct {
		name string
		size int64
	}{{"4KB", mem.Page4K}, {"2MB", mem.Page2M}, {"1GB", mem.Page1G}}
	for _, pg := range pages {
		for _, size := range stdSizes {
			v := newEnv(1)
			res := v.runCopy(copyCfg{size: size, count: 120, qd: 32, pageSize: pg.size})
			t.Set(pg.name, float64(size), res.gbps)
		}
	}
	t.Note("page size has almost no effect: translations pipeline with data movement (paper Fig 8)")
	return []*report.Table{t}
}

// Fig10 reproduces multi-instance scaling with the leaky-DMA knee.
func Fig10() []*report.Table {
	t := report.New("fig10", "Aggregate throughput with multiple DSA instances", "xfer", "GB/s")
	sizes := append(append([]int64{}, stdSizes...), 4<<20)
	for _, ndev := range []int{1, 2, 3, 4} {
		for _, size := range sizes {
			for _, async := range []bool{false, true} {
				qd := 1
				label := "S"
				if async {
					qd, label = 32, "A"
				}
				v := newEnv(ndev)
				var wqs []*dsa.WQ
				for _, dev := range v.devs {
					wqs = append(wqs, dev.WQs()...)
				}
				count := 60
				if async {
					count = 120
				}
				// One thread per device; destination spans size×qd so the
				// write footprint grows with transfer size (leaky DMA).
				res := v.runCopy(copyCfg{
					size: size, count: count * ndev, qd: qd,
					threads: ndev, wqs: wqs,
					flags: dsa.FlagCacheControl,
					span:  size * int64(qd),
				})
				t.Set(fmt.Sprintf("%s:%d", label, ndev), float64(size), res.gbps)
			}
		}
	}
	t.Note("async scales linearly to ~120 GB/s below 64KB; beyond, write footprints overflow the DDIO ways and DRAM write bandwidth caps aggregate throughput (paper Fig 10)")
	return []*report.Table{t}
}

// CBDMAComparison reproduces the §4.2 DSA-vs-CBDMA average.
func CBDMAComparison() []*report.Table {
	t := report.New("cbdma", "DSA (SPR) vs CBDMA (ICX) copy throughput", "xfer", "GB/s")
	var ratioSum float64
	var points int
	for _, size := range stdSizes {
		v := newEnv(1)
		dsaRes := v.runCopy(copyCfg{size: size, count: 120, qd: 32})
		t.Set("DSA", float64(size), dsaRes.gbps)

		pr := platform.SPR()
		pr.DeviceConfig = platform.ICX().DeviceConfig
		cbRes := profileEnv(pr).runCopy(copyCfg{size: size, count: 120, qd: 32})
		t.Set("CBDMA", float64(size), cbRes.gbps)
		if cbRes.gbps > 0 {
			ratioSum += dsaRes.gbps / cbRes.gbps
			points++
		}
	}
	t.Note("average DSA/CBDMA ratio = %.2f (paper: 2.1x)", ratioSum/float64(points))
	return []*report.Table{t}
}

// Table1 exercises every Table 1 operation through the device and reports
// functional verification.
func Table1() []*report.Table {
	t := report.New("table1", "Supported operations, verified end to end", "op", "1 = verified")
	results := verifyOps()
	for i, r := range results {
		status := 0.0
		if r.ok {
			status = 1.0
		}
		t.SetNamed("verified", r.name, float64(i), status)
	}
	t.Note("each operation ran on the device model and its functional result was checked against the software kernel")
	return []*report.Table{t}
}
