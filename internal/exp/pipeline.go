package exp

import (
	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/platform"
	"dsasim/internal/report"
	"dsasim/internal/sim"
)

// pipeline workload shape: a closed serial loop — one request in flight,
// measuring end-to-end chain latency. Small transfers make the per-op
// software window (admission, placement, portal write, completion wait)
// the dominant cost, which is exactly what fusion amortizes: a fused
// chain pays it once per DAG, the sequential baseline once per stage.
var (
	pipelineDepths = []int{2, 3, 4}
	pipelineSizes  = []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10}
)

const (
	pipeIters = 300         // chain executions per measurement
	pipeSize  = int64(4096) // payload for the depth sweep
)

// Pipeline measures fused multi-op DAG submission against stage-at-a-time
// submission over two tables:
//
//   - "pipeline": a depth-d move/digest chain (d-1 copies feeding a CRC32)
//     at 4 KB, fused into one fenced batch vs submitted one hardware op at
//     a time with a Wait between stages. y is chain throughput in GB/s.
//   - "pipeline-size": the storage DIF-strip→write chain (protected read
//     stripped to payload, payload written out) across payload sizes.
//
// The fused series submits each chain as ONE batch — one admission charge,
// one portal write, one completion window — with FlagFence expressing the
// stage ordering on-device. The sequential series is the same descriptors
// through the classic one-op path. CI gates fused/sequential at depth 3
// (absolute ≥1.5x floor) and at 4 KB for the storage chain (≥1.2x).
func Pipeline() []*report.Table {
	depth := report.New("pipeline", "Fused pipeline vs per-stage submission vs chain depth",
		"stages", "GB/s")
	for _, d := range pipelineDepths {
		x := float64(d)
		depth.Set("fused", x, chainRun(d, pipeSize, true))
		depth.Set("sequential", x, chainRun(d, pipeSize, false))
	}
	depth.Note("chain = %d-1 copies feeding a CRC32 digest, %s payload, serial closed loop; fused pays one submit+wait per chain, sequential one per stage", pipelineDepths[len(pipelineDepths)-1], report.FormatBytes(float64(pipeSize)))
	depth.Note("intermediates are pipeline Scratch refs: placement scores the chain's fixed endpoints only and the scratch hops follow to the chosen socket")
	depth.Note("CI gates fused/sequential at 3 stages with an absolute 1.5x floor")

	size := report.New("pipeline-size", "Fused DIF-strip→write chain vs payload size",
		"payload", "GB/s")
	for _, n := range pipelineSizes {
		x := float64(n)
		size.Set("fused", x, difRun(n, true))
		size.Set("sequential", x, difRun(n, false))
	}
	size.Note("protected 520B-block input stripped to a scratch payload, then written out; the fusion win shrinks as device time overtakes the per-op software window")
	size.Note("CI gates fused/sequential at 4K with an absolute 1.2x floor")
	return []*report.Table{depth, size}
}

// pipelineRig builds the experiment platform, one 4-engine device behind a
// shared WQ on each socket under an offload service with the placement
// scheduler (so fused chains exercise intermediate-buffer-aware
// placement), and returns its engine and a tenant.
func pipelineRig() (*sim.Engine, *offload.Tenant) {
	pr := platform.SPR()
	pr.Groups = []dsa.GroupConfig{{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Shared, Size: 64}}}}
	pr.Scheduler = func() offload.Scheduler { return offload.NewPlacement() }
	pl := dsaPerSocket(pr)
	return pl.E, pl.NewTenant()
}

// chainRun executes pipeIters depth-stage move/digest chains (depth-1
// copies feeding a CRC32) over a fresh platform and returns chain
// throughput in GB/s (payload bytes touched per stage, summed).
func chainRun(depth int, size int64, fused bool) float64 {
	e, tn := pipelineRig()
	src := tn.Alloc(size)
	dst := tn.Alloc(size)
	rng := sim.NewRand(17)
	rng.Bytes(src.Bytes())

	var elapsed sim.Time
	e.Go("chain", func(p *sim.Proc) {
		start := p.Now()
		if fused {
			pl := tn.NewPipeline()
			cur, prev := offload.At(src.Addr(0)), (*offload.Stage)(nil)
			for i := 0; i < depth-1; i++ {
				next := offload.At(dst.Addr(0))
				if i < depth-2 {
					next = pl.Scratch(size)
				}
				if prev == nil {
					prev = pl.Copy(next, cur, size)
				} else {
					prev = pl.Copy(next, cur, size, offload.After(prev))
				}
				cur = next
			}
			pl.CRC32(cur, size, 0, offload.After(prev))
			for i := 0; i < pipeIters; i++ {
				fut, err := pl.Submit(p)
				if err != nil {
					panic(err)
				}
				if _, err := fut.Wait(p, offload.Poll); err != nil {
					panic(err)
				}
			}
		} else {
			// Same chain, one hardware op at a time. Intermediates are
			// plain tenant buffers: the sequential path has no scratch
			// plumbing to hand placement.
			hops := make([]*mem.Buffer, 0, depth-2)
			for i := 0; i < depth-2; i++ {
				hops = append(hops, tn.Alloc(size))
			}
			for i := 0; i < pipeIters; i++ {
				cur := src.Addr(0)
				for j := 0; j < depth-1; j++ {
					next := dst.Addr(0)
					if j < depth-2 {
						next = hops[j].Addr(0)
					}
					fut, err := tn.Copy(p, next, cur, size, offload.On(offload.Hardware), offload.NoBatch())
					seqOp(p, fut, err)
					cur = next
				}
				fut, err := tn.CRC32(p, cur, size, 0, offload.On(offload.Hardware), offload.NoBatch())
				seqOp(p, fut, err)
			}
		}
		elapsed = p.Now() - start
	})
	e.Run()
	return sim.Rate(size*int64(depth)*pipeIters, elapsed)
}

// difRun executes pipeIters DIF-strip→write chains: a protected 520B-block
// input is verified and stripped to payload, and the payload written to its
// destination. Returns GB/s over the payload bytes each stage touches.
func difRun(payload int64, fused bool) float64 {
	e, tn := pipelineRig()
	blocks := payload / int64(dif.Block512)
	protSize := blocks * int64(dif.Block512.Protected())
	tags := dif.Tags{AppTag: 0x1D, RefTag: 9, IncrementRef: true}

	prot := tn.Alloc(protSize)
	dst := tn.Alloc(payload)
	raw := make([]byte, payload)
	rng := sim.NewRand(23)
	rng.Bytes(raw)
	if err := dif.Insert(prot.Bytes(), raw, dif.Block512, tags); err != nil {
		panic(err)
	}

	var elapsed sim.Time
	e.Go("dif", func(p *sim.Proc) {
		start := p.Now()
		if fused {
			pl := tn.NewPipeline()
			stripped := pl.Scratch(payload)
			st := pl.DIFStrip(stripped, offload.At(prot.Addr(0)), protSize, dif.Block512, tags)
			pl.Copy(offload.At(dst.Addr(0)), stripped, payload, offload.After(st))
			for i := 0; i < pipeIters; i++ {
				fut, err := pl.Submit(p)
				if err != nil {
					panic(err)
				}
				if _, err := fut.Wait(p, offload.Poll); err != nil {
					panic(err)
				}
			}
		} else {
			hop := tn.Alloc(payload)
			for i := 0; i < pipeIters; i++ {
				fut, err := tn.DIFStrip(p, hop.Addr(0), prot.Addr(0), protSize, dif.Block512, tags,
					offload.On(offload.Hardware), offload.NoBatch())
				seqOp(p, fut, err)
				fut, err = tn.Copy(p, dst.Addr(0), hop.Addr(0), payload,
					offload.On(offload.Hardware), offload.NoBatch())
				seqOp(p, fut, err)
			}
		}
		elapsed = p.Now() - start
	})
	e.Run()
	return sim.Rate(payload*2*pipeIters, elapsed)
}

// seqOp waits out one sequential-baseline hardware op.
func seqOp(p *sim.Proc, fut *offload.Future, err error) {
	if err != nil {
		panic(err)
	}
	if _, err := fut.Wait(p, offload.Poll); err != nil {
		panic(err)
	}
}
