package dsasim

// The benchmark harness: one testing.B benchmark per paper table/figure
// (deliverable d). Each benchmark regenerates its artifact through
// internal/exp and reports a headline metric; the rendered tables come from
// cmd/dsa-bench. Additional micro- and ablation benchmarks at the bottom
// exercise the device model directly with b.SetBytes so ns/op and MB/s are
// meaningful.

import (
	"testing"

	"dsasim/internal/dsa"
	"dsasim/internal/exp"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// benchExperiment reruns one experiment per iteration and reports the
// largest throughput-like value it produced as a sanity metric.
func benchExperiment(b *testing.B, id string, metric string) {
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var headline float64
	for i := 0; i < b.N; i++ {
		tables := e.Run()
		headline = 0
		for _, t := range tables {
			for _, s := range t.Series() {
				for _, x := range t.Xs() {
					if v, ok := t.Get(s, x); ok && v > headline {
						headline = v
					}
				}
			}
		}
	}
	b.ReportMetric(headline, metric)
}

func BenchmarkTable1Ops(b *testing.B)            { benchExperiment(b, "table1", "verified") }
func BenchmarkCBDMAComparison(b *testing.B)      { benchExperiment(b, "cbdma", "GBps_max") }
func BenchmarkFig2aSyncSpeedup(b *testing.B)     { benchExperiment(b, "fig2a", "speedup_max") }
func BenchmarkFig2bAsyncSpeedup(b *testing.B)    { benchExperiment(b, "fig2b", "speedup_max") }
func BenchmarkFig3Batching(b *testing.B)         { benchExperiment(b, "fig3", "GBps_max") }
func BenchmarkFig4WQDepth(b *testing.B)          { benchExperiment(b, "fig4", "GBps_max") }
func BenchmarkFig5LatencyBreakdown(b *testing.B) { benchExperiment(b, "fig5", "us_max") }
func BenchmarkFig6aNUMA(b *testing.B)            { benchExperiment(b, "fig6a", "GBps_max") }
func BenchmarkFig6bCXL(b *testing.B)             { benchExperiment(b, "fig6b", "GBps_max") }
func BenchmarkFig7PEScaling(b *testing.B)        { benchExperiment(b, "fig7", "GBps_max") }
func BenchmarkFig8HugePages(b *testing.B)        { benchExperiment(b, "fig8", "GBps_max") }
func BenchmarkFig9WQConfig(b *testing.B)         { benchExperiment(b, "fig9", "GBps_max") }
func BenchmarkFig10MultiDevice(b *testing.B)     { benchExperiment(b, "fig10", "GBps_max") }
func BenchmarkFig11UMWAIT(b *testing.B)          { benchExperiment(b, "fig11", "pct_max") }
func BenchmarkFig12LLCOccupancy(b *testing.B)    { benchExperiment(b, "fig12", "MB_max") }
func BenchmarkFig13CachePollution(b *testing.B)  { benchExperiment(b, "fig13", "ns_max") }
func BenchmarkFig14BatchBalance(b *testing.B)    { benchExperiment(b, "fig14", "GBps_max") }
func BenchmarkFig15CacheSource(b *testing.B)     { benchExperiment(b, "fig15", "GBps_max") }
func BenchmarkFig16Vhost(b *testing.B)           { benchExperiment(b, "fig16", "Mpps_max") }
func BenchmarkFig17aLibfabric(b *testing.B)      { benchExperiment(b, "fig17a", "GBps_max") }
func BenchmarkFig17bOSU(b *testing.B)            { benchExperiment(b, "fig17b", "speedup_max") }
func BenchmarkFig18BERT(b *testing.B)            { benchExperiment(b, "fig18", "sec_max") }
func BenchmarkFig19CacheLib(b *testing.B)        { benchExperiment(b, "fig19", "rel_max") }
func BenchmarkFig21SPDK(b *testing.B)            { benchExperiment(b, "fig21", "rel_max") }
func BenchmarkSchedComparison(b *testing.B)      { benchExperiment(b, "sched", "GBps_max") }
func BenchmarkQoSInterference(b *testing.B)      { benchExperiment(b, "qos", "p99us_max") }
func BenchmarkPlacementComparison(b *testing.B)  { benchExperiment(b, "placement", "GBps_max") }
func BenchmarkSkewWindow(b *testing.B)           { benchExperiment(b, "skew", "GBps_max") }
func BenchmarkCoalesceDelivery(b *testing.B)     { benchExperiment(b, "coalesce", "GBps_max") }
func BenchmarkAdaptiveClosedLoop(b *testing.B)   { benchExperiment(b, "adaptive", "score_max") }
func BenchmarkContentionExperiment(b *testing.B) { benchExperiment(b, "contention", "Mops_max") }

// Device micro-benchmarks: virtual-time throughput of the model itself.
// b.SetBytes reflects simulated payload per iteration, so MB/s measures
// simulator speed (host work per simulated byte), while the reported
// sim_GBps metric is the modelled device throughput.

func benchDeviceCopy(b *testing.B, size int64, qd int) {
	pl := NewPlatform(SPR())
	tn := pl.NewTenant()
	src := tn.Alloc(size)
	dst := tn.Alloc(size)
	wq := pl.Devices[0].WQs()[0]
	cl := dsa.NewClient(wq, nil)
	b.SetBytes(size)
	b.ResetTimer()
	var start, end sim.Time
	pl.E.Go("bench", func(p *sim.Proc) {
		start = p.Now()
		var window []*dsa.Completion
		for i := 0; i < b.N; i++ {
			cl.Prepare(p)
			comp, err := cl.Submit(p, dsa.Descriptor{
				Op: dsa.OpMemmove, PASID: tn.AS.PASID,
				Src: src.Addr(0), Dst: dst.Addr(0), Size: size,
			})
			if err != nil {
				b.Error(err)
				return
			}
			window = append(window, comp)
			if len(window) >= qd {
				window[0].Wait(p)
				window = window[1:]
			}
		}
		for _, c := range window {
			c.Wait(p)
		}
		end = p.Now()
	})
	pl.E.Run()
	b.ReportMetric(sim.Rate(size*int64(b.N), end-start), "sim_GBps")
}

func BenchmarkDeviceCopy4KSync(b *testing.B)   { benchDeviceCopy(b, 4<<10, 1) }
func BenchmarkDeviceCopy4KAsync(b *testing.B)  { benchDeviceCopy(b, 4<<10, 32) }
func BenchmarkDeviceCopy64KAsync(b *testing.B) { benchDeviceCopy(b, 64<<10, 32) }
func BenchmarkDeviceCopy1MAsync(b *testing.B)  { benchDeviceCopy(b, 1<<20, 32) }

// Ablation: read-buffer starvation (the §3.4 F3 QoS knob).
func BenchmarkAblationReadBufs(b *testing.B) {
	for _, bufs := range []int{8, 32, 96} {
		bufs := bufs
		b.Run(map[int]string{8: "bufs8", 32: "bufs32", 96: "bufs96"}[bufs], func(b *testing.B) {
			pl := NewPlatform(SPR())
			dev, err := pl.AddDevice("dsa-ab", 0, dsa.GroupConfig{
				Engines:  4,
				ReadBufs: bufs,
				WQs:      []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}},
			})
			if err != nil {
				b.Fatal(err)
			}
			tn := pl.NewTenant()
			size := int64(64 << 10)
			src := tn.Alloc(size)
			dst := tn.Alloc(size)
			cl := dsa.NewClient(dev.WQs()[0], nil)
			b.SetBytes(size)
			b.ResetTimer()
			var start, end sim.Time
			pl.E.Go("bench", func(p *sim.Proc) {
				start = p.Now()
				var window []*dsa.Completion
				for i := 0; i < b.N; i++ {
					cl.Prepare(p)
					comp, err := cl.Submit(p, dsa.Descriptor{
						Op: dsa.OpMemmove, PASID: tn.AS.PASID,
						Src: src.Addr(0), Dst: dst.Addr(0), Size: size,
					})
					if err != nil {
						b.Error(err)
						return
					}
					window = append(window, comp)
					if len(window) >= 16 {
						window[0].Wait(p)
						window = window[1:]
					}
				}
				for _, c := range window {
					c.Wait(p)
				}
				end = p.Now()
			})
			pl.E.Run()
			b.ReportMetric(sim.Rate(size*int64(b.N), end-start), "sim_GBps")
		})
	}
}

// Ablation: Auto-path threshold routing cost at the boundary.
func BenchmarkAblationAutoThreshold(b *testing.B) {
	pl := NewPlatform(SPR())
	tn := pl.NewTenant()
	src := tn.Alloc(8 << 10)
	dst := tn.Alloc(8 << 10)
	b.SetBytes(8 << 10)
	b.ResetTimer()
	pl.E.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 8<<10)
			if err == nil {
				_, err = f.Wait(p, offload.Poll)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	pl.E.Run()
}
