package fabric

import (
	"bytes"
	"testing"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

func testSystem(e *sim.Engine) *mem.System {
	return mem.NewSystem(e, mem.SystemConfig{
		Sockets: 1,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
}

// dsaWQs builds the socket's full complement of four DSA instances, as a
// libfabric provider on SPR would discover and spread load across.
func dsaWQs(t *testing.T, e *sim.Engine, sys *mem.System) []*dsa.WQ {
	t.Helper()
	var wqs []*dsa.WQ
	for i := 0; i < 4; i++ {
		dev := dsa.New(e, sys, dsa.DefaultConfig("dsa"+string(rune('0'+i)), 0))
		if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Shared, Size: 64}}}); err != nil {
			t.Fatal(err)
		}
		if err := dev.Enable(); err != nil {
			t.Fatal(err)
		}
		wqs = append(wqs, dev.WQs()...)
	}
	return wqs
}

func newDomain(t *testing.T, mode Mode) *Domain {
	t.Helper()
	e := sim.New()
	sys := testSystem(e)
	var wqs []*dsa.WQ
	if mode == DSACopy {
		wqs = dsaWQs(t, e, sys)
	}
	d, err := NewDomain(e, sys, sys.Node(0), cpu.SPRModel(), mode, wqs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSendDeliversBytes(t *testing.T) {
	for _, mode := range []Mode{CPUCopy, DSACopy} {
		d := newDomain(t, mode)
		a, _ := d.NewEndpoint()
		b, _ := d.NewEndpoint()
		n := int64(300 << 10) // several segments plus a partial one
		src := a.Alloc(n)
		dst := b.Alloc(n)
		sim.NewRand(5).Bytes(src.Bytes())
		var runErr error
		d.E.Go("send", func(p *sim.Proc) {
			runErr = a.Send(p, b, src, 0, dst, 0, n)
		})
		d.E.Run()
		if runErr != nil {
			t.Fatalf("mode %v: %v", mode, runErr)
		}
		if !bytes.Equal(dst.Bytes(), src.Bytes()) {
			t.Fatalf("mode %v: payload corrupted in SAR transfer", mode)
		}
	}
}

func TestPingpongDSAFasterAtLargeMessages(t *testing.T) {
	// Fig 17a: DSA overtakes CPU for messages ≥32KB, up to ~5×.
	n := int64(4 << 20)
	cpuT, err := Pingpong(newDomain(t, CPUCopy), n, 4)
	if err != nil {
		t.Fatal(err)
	}
	dsaT, err := Pingpong(newDomain(t, DSACopy), n, 4)
	if err != nil {
		t.Fatal(err)
	}
	ratio := dsaT / cpuT
	// Paper reports up to 5.1×; the model lands somewhat higher because
	// its CPU SAR path is fully memory-bound at multi-MB messages.
	if ratio < 2.5 || ratio > 9 {
		t.Fatalf("PP DSA/CPU at 4MB = %.1f (%.1f vs %.1f GB/s), want large (~5×)", ratio, dsaT, cpuT)
	}
}

func TestPingpongCPUWinsSmallMessages(t *testing.T) {
	n := int64(8 << 10)
	cpuT, err := Pingpong(newDomain(t, CPUCopy), n, 10)
	if err != nil {
		t.Fatal(err)
	}
	dsaT, err := Pingpong(newDomain(t, DSACopy), n, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dsaT > cpuT {
		t.Fatalf("DSA (%.2f GB/s) should not beat CPU (%.2f GB/s) at 8KB messages", dsaT, cpuT)
	}
}

func TestRMAThroughput(t *testing.T) {
	n := int64(1 << 20)
	cpuT, err := RMA(newDomain(t, CPUCopy), n, 8)
	if err != nil {
		t.Fatal(err)
	}
	dsaT, err := RMA(newDomain(t, DSACopy), n, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dsaT <= cpuT {
		t.Fatalf("RMA DSA (%.1f) should beat CPU (%.1f) at 1MB", dsaT, cpuT)
	}
}

func TestAllReduceCorrectness(t *testing.T) {
	for _, mode := range []Mode{CPUCopy, DSACopy} {
		for _, ranks := range []int{2, 4, 8} {
			d := newDomain(t, mode)
			res, err := AllReduce(d, ranks, 256<<10, 1)
			if err != nil {
				t.Fatalf("mode %v ranks %d: %v", mode, ranks, err)
			}
			if !res.Verified {
				t.Fatalf("mode %v ranks %d: all-reduce result wrong", mode, ranks)
			}
			if res.Duration <= 0 {
				t.Fatalf("mode %v ranks %d: non-positive duration", mode, ranks)
			}
		}
	}
}

func TestAllReduceDSASpeedup(t *testing.T) {
	// Fig 17b shape: DSA accelerates large-message AllReduce
	// substantially (the paper reports up to ~5×; the model reproduces
	// ~2×, because its CPU baseline lets the idle peer core overlap the
	// receive-side copy with the send-side one — see Endpoint.Send).
	m := int64(16 << 20)
	cpuRes, err := AllReduce(newDomain(t, CPUCopy), 4, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	dsaRes, err := AllReduce(newDomain(t, DSACopy), 4, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := float64(cpuRes.Duration) / float64(dsaRes.Duration)
	if sp < 1.5 {
		t.Fatalf("AllReduce speedup = %.2f (CPU %v vs DSA %v), want >1.5", sp, cpuRes.Duration, dsaRes.Duration)
	}
}

func TestAllReduceRejectsSingleRank(t *testing.T) {
	if _, err := AllReduce(newDomain(t, CPUCopy), 1, 1024, 1); err == nil {
		t.Fatal("single-rank all-reduce accepted")
	}
}

func TestBERTPhases(t *testing.T) {
	// Fig 18: AR speeds up ~3×, total a few percent.
	run := func(mode Mode, ranks int) BERTResult {
		res, err := BERT(newDomain(t, mode), BERTConfig{Ranks: ranks, SimBytes: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("BERT all-reduce unverified")
		}
		return res
	}
	cpu2 := run(CPUCopy, 2)
	dsa2 := run(DSACopy, 2)
	arSpeedup := float64(cpu2.AllReduce) / float64(dsa2.AllReduce)
	if arSpeedup < 1.5 {
		t.Fatalf("AR speedup (R2) = %.2f, want ≥1.5", arSpeedup)
	}
	totSpeedup := float64(cpu2.Total) / float64(dsa2.Total)
	if totSpeedup < 1.01 || totSpeedup > 1.5 {
		t.Fatalf("total speedup (R2) = %.3f, want a modest end-to-end gain", totSpeedup)
	}
	// 8 ranks: communication is a larger share of the iteration, so the
	// end-to-end benefit remains material. (The paper's speedup *grows*
	// with ranks; the model's shrinks because its DSA aggregate is capped
	// at the socket's four instances, a modelling limit stated here.)
	cpu8 := run(CPUCopy, 8)
	dsa8 := run(DSACopy, 8)
	ar8 := float64(cpu8.AllReduce) / float64(dsa8.AllReduce)
	if ar8 < 1.3 {
		t.Fatalf("AR speedup (R8) = %.2f, want ≥1.3", ar8)
	}
	tot8 := float64(cpu8.Total) / float64(dsa8.Total)
	if tot8 < 1.01 {
		t.Fatalf("total speedup (R8) = %.3f, want >1", tot8)
	}
}

func TestBarrier(t *testing.T) {
	e := sim.New()
	bar := NewBarrier(e, 3)
	var log []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go("w", func(p *sim.Proc) {
			p.Sleep(sim.Time(i+1) * time.Microsecond)
			bar.Wait(p)
			log = append(log, i)
			bar.Wait(p)
			log = append(log, 10+i)
		})
	}
	e.Run()
	if len(log) != 6 {
		t.Fatalf("log = %v", log)
	}
	// All first-phase entries precede all second-phase entries.
	for _, v := range log[:3] {
		if v >= 10 {
			t.Fatalf("barrier did not separate phases: %v", log)
		}
	}
	for _, v := range log[3:] {
		if v < 10 {
			t.Fatalf("barrier did not separate phases: %v", log)
		}
	}
}
