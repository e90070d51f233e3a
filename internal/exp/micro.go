package exp

import (
	"fmt"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/report"
	"dsasim/internal/sim"
)

// stdSizes is the transfer-size sweep used by most figures (256 B – 1 MB).
var stdSizes = []int64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// fig2Ops are the data-streaming operations whose speedup Fig 2 plots.
// NT-Memory Fill is the non-allocating (cache-control clear) variant.
var fig2Ops = []struct {
	name  string
	op    dsa.OpType
	flags dsa.Flags
}{
	{"memcpy", dsa.OpMemmove, 0},
	{"fill", dsa.OpFill, dsa.FlagCacheControl},
	{"nt-fill", dsa.OpFill, 0},
	{"memcmp", dsa.OpCompare, 0},
	{"cmp-pattern", dsa.OpComparePattern, 0},
	{"crc32", dsa.OpCRCGen, 0},
	{"copy-crc", dsa.OpCopyCRC, 0},
	{"dualcast", dsa.OpDualcast, 0},
	{"dif-insert", dsa.OpDIFInsert, 0},
}

// fig2Size rounds a sweep size for ops with block constraints.
func fig2Size(op dsa.OpType, size int64) int64 {
	if op == dsa.OpDIFInsert {
		if size < 512 {
			return 512
		}
		return size / 512 * 512
	}
	return size
}

// fig2 builds one Fig 2 panel; async selects panel (b).
func fig2(id, title string, async bool) []*report.Table {
	t := report.New(id, title, "xfer", "DSA/CPU throughput ratio")
	for _, o := range fig2Ops {
		for _, size := range stdSizes {
			sz := fig2Size(o.op, size)

			v := newEnv(1)
			qd, count := 1, 30
			if async {
				qd, count = 32, 150
			}
			res := v.runCopy(copyCfg{op: o.op, flags: o.flags, size: sz, count: count, qd: qd})

			vc := newEnv(0)
			swDur := vc.swTime(o.op, sz, nil, nil, false, false)
			swGBps := sim.Rate(sz, swDur)

			t.Set(o.name, float64(size), res.gbps/swGBps)
		}
	}
	if async {
		t.Note("values > 1 mean DSA beats the software baseline; no row crosses 1: every op reads ≥ 2.71x already at 256B, the smallest size, so the model misses the paper's async crossover at ~256B–512B (Fig 2b)")
	} else {
		t.Note("values > 1 mean DSA beats the software baseline; memcpy, memcmp, crc32, copy-crc, dualcast and dif-insert cross 1 at the 4K row and fill, nt-fill and cmp-pattern at 16K (0.83–0.90x at 4K), against the paper's sync crossover at ~4KB (Fig 2a)")
	}
	return []*report.Table{t}
}

// Fig2a reproduces the synchronous-offload speedup panel.
func Fig2a() []*report.Table {
	return fig2("fig2a", "Sync speedup over software counterparts", false)
}

// Fig2b reproduces the asynchronous-offload speedup panel.
func Fig2b() []*report.Table {
	return fig2("fig2b", "Async speedup over software counterparts", true)
}

// Fig3 reproduces copy throughput across transfer size × batch size, sync
// and async.
func Fig3() []*report.Table {
	t := report.New("fig3", "Memory Copy throughput vs transfer and batch size", "xfer", "GB/s")
	for _, bs := range []int{1, 4, 16, 64} {
		for _, size := range stdSizes {
			count := 2000 / bs
			if count < 8 {
				count = 8
			}
			vs := newEnv(1)
			sync := vs.runCopy(copyCfg{size: size, batch: bs, count: count, qd: 1})
			t.Set(fmt.Sprintf("Sync,BS:%d", bs), float64(size), sync.gbps)

			va := newEnv(1)
			async := va.runCopy(copyCfg{size: size, batch: bs, count: count, qd: 32})
			t.Set(fmt.Sprintf("Async,BS:%d", bs), float64(size), async.gbps)
		}
	}
	t.Note("throughput saturates at the 30 GB/s fabric: sync needs 256KB×BS64, async 4KB×BS4 (paper Fig 3)")
	return []*report.Table{t}
}

// Fig4 reproduces async throughput against WQ size (the in-flight window).
func Fig4() []*report.Table {
	t := report.New("fig4", "Async Memory Copy throughput vs WQ size", "xfer", "GB/s")
	for _, wqs := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		for _, size := range stdSizes {
			v := newEnv(1, dsa.GroupConfig{
				Engines: 4,
				WQs:     []dsa.WQConfig{{Mode: dsa.Dedicated, Size: wqs}},
			})
			res := v.runCopy(copyCfg{size: size, count: 150, qd: wqs})
			t.Set(fmt.Sprintf("WQS:%d", wqs), float64(size), res.gbps)
		}
	}
	t.Note("32 entries reach near-max throughput (guideline G6)")
	return []*report.Table{t}
}

// Fig5 reproduces the 4 KB offload latency breakdown against batch size.
func Fig5() []*report.Table {
	t := report.New("fig5", "Latency per 4KB offload: CPU vs DSA phases", "batch", "µs per 4KB")
	const size = 4 << 10
	for _, bs := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		// CPU bar: plain memcpy.
		vc := newEnv(0)
		cpuDur := vc.swTime(dsa.OpMemmove, size, nil, nil, false, false)
		t.Set("CPU", float64(bs), float64(cpuDur)/1e3)

		// DSA stacked bar: allocate, prepare, submit, wait — amortized
		// per 4 KB descriptor.
		v := newEnv(1)
		wq := v.devs[0].WQs()[0]
		cl := dsa.NewClient(wq, nil)
		src := v.buf(size*int64(bs), v.node(0), false, 0)
		dst := v.buf(size*int64(bs), v.node(0), false, 0)
		iters := 20
		v.e.Go("fig5", func(p *sim.Proc) {
			for i := 0; i < iters; i++ {
				cl.AllocDescriptors(p, bs)
				var d dsa.Descriptor
				if bs == 1 {
					cl.Prepare(p)
					d = dsa.Descriptor{Op: dsa.OpMemmove, PASID: v.as.PASID,
						Src: src.Addr(0), Dst: dst.Addr(0), Size: size}
				} else {
					subs := make([]dsa.Descriptor, bs)
					for j := range subs {
						cl.Prepare(p)
						off := int64(j) * size
						subs[j] = dsa.Descriptor{Op: dsa.OpMemmove,
							Src: src.Addr(off), Dst: dst.Addr(off), Size: size}
					}
					d = dsa.Descriptor{Op: dsa.OpBatch, PASID: v.as.PASID, Descs: subs}
				}
				comp, err := cl.Submit(p, d)
				if err != nil {
					panic(err)
				}
				cl.Wait(p, comp, dsa.Poll)
			}
		})
		v.e.Run()
		per := float64(iters * bs)
		t.Set("alloc", float64(bs), float64(cl.AllocTime)/per/1e3)
		t.Set("prepare", float64(bs), float64(cl.PrepareTime)/per/1e3)
		t.Set("submit", float64(bs), float64(cl.SubmitTime)/per/1e3)
		t.Set("wait", float64(bs), float64(cl.WaitTime)/per/1e3)
	}
	t.Note("descriptor allocation dominates the naive path and amortizes with batching (paper Fig 5)")
	return []*report.Table{t}
}

// Fig7 reproduces throughput scaling with engines per group.
func Fig7() []*report.Table {
	t := report.New("fig7", "Memory Copy throughput vs engines per group", "PEs", "GB/s")
	for _, pes := range []int{1, 2, 3, 4} {
		for _, ts := range []int64{256, 1 << 10} {
			for _, bs := range []int{1, 4, 16, 64} {
				v := newEnv(1, dsa.GroupConfig{
					Engines: pes,
					WQs:     []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}},
				})
				count := 1500 / bs
				if count < 10 {
					count = 10
				}
				res := v.runCopy(copyCfg{size: ts, batch: bs, count: count, qd: 16})
				t.Set(fmt.Sprintf("TS:%s,BS:%d", report.FormatBytes(float64(ts)), bs),
					float64(pes), res.gbps)
			}
		}
	}
	t.Note("small transfers scale with PEs; large transfers saturate one PE (guideline G5)")
	return []*report.Table{t}
}

// Fig9 reproduces the WQ-configuration comparison: one batched DWQ vs N
// DWQs with N threads vs one SWQ with N threads.
func Fig9() []*report.Table {
	t := report.New("fig9", "Throughput of WQ configurations", "xfer", "GB/s")
	sizes := []int64{256, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10}
	for _, n := range []int{1, 4, 8} {
		for _, size := range sizes {
			eng := n
			if eng > 4 {
				eng = 4
			}
			// BS:N — one DWQ, one thread, batches of N.
			vb := newEnv(1, dsa.GroupConfig{
				Engines: eng,
				WQs:     []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}},
			})
			bres := vb.runCopy(copyCfg{size: size, batch: n, count: 1200 / n, qd: 16})
			t.Set(fmt.Sprintf("BS:%d", n), float64(size), bres.gbps)

			// DWQ:N — N dedicated WQs, one thread and engine each.
			wqcfg := make([]dsa.WQConfig, n)
			for i := range wqcfg {
				wqcfg[i] = dsa.WQConfig{Mode: dsa.Dedicated, Size: 16}
			}
			vd := newEnv(1, dsa.GroupConfig{Engines: eng, WQs: wqcfg})
			dres := vd.runCopy(copyCfg{size: size, count: 1200, qd: 16, threads: n})
			t.Set(fmt.Sprintf("DWQ:%d", n), float64(size), dres.gbps)

			// SWQ:N — one shared WQ, N submitting threads.
			vs := newEnv(1, dsa.GroupConfig{
				Engines: eng,
				WQs:     []dsa.WQConfig{{Mode: dsa.Shared, Size: 32}},
			})
			sres := vs.runCopy(copyCfg{size: size, count: 1200, qd: 16, threads: n})
			t.Set(fmt.Sprintf("SWQ:%d", n), float64(size), sres.gbps)
		}
	}
	t.Note("batching ≈ multiple DWQs; single-thread SWQ lags below 8KB from the ENQCMD round trip (guideline G6)")
	return []*report.Table{t}
}

// Fig11 reproduces the fraction of CPU cycles spent in UMWAIT.
func Fig11() []*report.Table {
	t := report.New("fig11", "CPU cycles in UMWAIT during offload", "xfer", "% cycles in UMWAIT")
	for _, bs := range []int{1, 4, 16, 64} {
		for _, size := range stdSizes {
			v := newEnv(1)
			core := cpu.NewCore(0, 0, v.sys, v.as, cpu.SPRModel())
			wq := v.devs[0].WQs()[0]
			cl := dsa.NewClient(wq, core)
			src := v.buf(size*int64(bs), v.node(0), false, 0)
			dst := v.buf(size*int64(bs), v.node(0), false, 0)
			iters := 12
			v.e.Go("fig11", func(p *sim.Proc) {
				for i := 0; i < iters; i++ {
					var d dsa.Descriptor
					if bs == 1 {
						d = dsa.Descriptor{Op: dsa.OpMemmove, PASID: v.as.PASID,
							Src: src.Addr(0), Dst: dst.Addr(0), Size: size}
					} else {
						subs := make([]dsa.Descriptor, bs)
						for j := range subs {
							off := int64(j) * size
							subs[j] = dsa.Descriptor{Op: dsa.OpMemmove,
								Src: src.Addr(off), Dst: dst.Addr(off), Size: size}
						}
						d = dsa.Descriptor{Op: dsa.OpBatch, PASID: v.as.PASID, Descs: subs}
					}
					if _, err := cl.RunSync(p, d, dsa.UMWait); err != nil {
						panic(err)
					}
				}
			})
			v.e.Run()
			frac := float64(core.UMWaitTime()) / float64(core.UMWaitTime()+core.BusyTime())
			t.Set(fmt.Sprintf("BS:%d", bs), float64(size), frac*100)
		}
	}
	t.Note("≥4KB or batched offloads park the core in UMWAIT for most cycles (paper Fig 11, §4.4)")
	return []*report.Table{t}
}

// Fig14 reproduces the transfer-size/batch-size balance for fixed total
// offload sizes.
func Fig14() []*report.Table {
	t := report.New("fig14", "Throughput for fixed totals split across TS:BS", "total", "GB/s")
	totals := []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10}
	ratios := []int{1, 2, 4, 8, 16, 32, 64, 128}
	xi := 0.0
	for _, syncMode := range []bool{true, false} {
		label := "S"
		qd := 1
		if !syncMode {
			label, qd = "A", 16
		}
		for _, total := range totals {
			x := xi
			xi++
			name := fmt.Sprintf("%s:%s", label, report.FormatBytes(float64(total)))
			for _, bs := range ratios {
				ts := total / int64(bs)
				if ts < 64 {
					continue
				}
				v := newEnv(1)
				res := v.runCopy(copyCfg{size: ts, batch: bs, count: 60, qd: qd})
				t.SetNamed(fmt.Sprintf("BS:%d", bs), name, x, res.gbps)
			}
		}
	}
	t.Note("for a fixed total, modest batching (4–8) is optimal synchronously; oversplitting wastes descriptor overhead (guideline G1)")
	return []*report.Table{t}
}
