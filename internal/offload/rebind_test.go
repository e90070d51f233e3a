package offload_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// rebindStage is one stage of a random pipeline shape: an op, where its
// source comes from (an input Arg, or an earlier stage's output), whether
// it writes a scratch buffer or an output Arg, and extra dependencies.
type rebindStage struct {
	op      dsa.OpType // OpMemmove, OpCopyCRC, OpCRCGen or OpFill
	from    int        // -1: an input Arg; else the stage whose output it reads
	scratch bool       // writes a scratch buffer instead of an output Arg
	deps    []int
}

// reads and writes report whether the stage has a source and a
// destination operand.
func (s rebindStage) reads() bool  { return s.op != dsa.OpFill }
func (s rebindStage) writes() bool { return s.op != dsa.OpCRCGen }

// rebindSize is every stage's operand size: eight pages, so an injected
// page-fault rate reaches most descriptors.
const rebindSize = int64(32 << 10)

// randShape draws an n-stage DAG of Copy/CopyCRC/CRC32/Fill stages.
func randShape(rng *sim.Rand, n int) []rebindStage {
	ops := []dsa.OpType{dsa.OpMemmove, dsa.OpCopyCRC, dsa.OpCRCGen, dsa.OpFill}
	shape := make([]rebindStage, n)
	for i := range shape {
		st := rebindStage{op: ops[rng.Intn(len(ops))], from: -1, scratch: rng.Intn(2) == 0}
		var producers []int
		for j := 0; j < i; j++ {
			if shape[j].writes() {
				producers = append(producers, j)
			}
		}
		if st.reads() && len(producers) > 0 && rng.Intn(3) > 0 {
			st.from = producers[rng.Intn(len(producers))]
		}
		if i > 0 && rng.Intn(4) == 0 {
			st.deps = append(st.deps, rng.Intn(i))
		}
		shape[i] = st
	}
	return shape
}

// rebindBinding is one run's operand addresses: per stage an input slot
// (socket, slot) and an output socket; stage i's output slot is i.
type rebindBinding struct {
	inSock, inSlot, outSock []int
}

func randBinding(rng *sim.Rand, n int) rebindBinding {
	b := rebindBinding{make([]int, n), make([]int, n), make([]int, n)}
	for i := 0; i < n; i++ {
		b.inSock[i], b.inSlot[i], b.outSock[i] = rng.Intn(2), rng.Intn(n), rng.Intn(2)
	}
	return b
}

// rebindRun is what one submission of a shape is observed to do.
type rebindRun struct {
	home, failed int
	results      []uint64
	end, dur     sim.Time
	err          string
	out          []byte
}

// declareShape declares shape on pl. With bind == nil every fixed operand
// is an Arg, returned in ins/outs for Bind; otherwise the operands are At
// refs at bind's addresses, as a pipeline built fresh for one run.
func declareShape(pl *offload.Pipeline, shape []rebindStage, addr func(b rebindBinding, i int, out bool) mem.Addr,
	bind *rebindBinding) (stages []*offload.Stage, ins, outs []offload.Ref) {
	ref := func(i int, out bool) offload.Ref {
		if bind == nil {
			return pl.Arg()
		}
		return offload.At(addr(*bind, i, out))
	}
	stages = make([]*offload.Stage, len(shape))
	ins, outs = make([]offload.Ref, len(shape)), make([]offload.Ref, len(shape))
	dsts := make([]offload.Ref, len(shape))
	for i, st := range shape {
		var opts []offload.StageOption
		var src offload.Ref
		if st.reads() {
			if st.from >= 0 {
				src = dsts[st.from]
				opts = append(opts, offload.After(stages[st.from]))
			} else {
				ins[i] = ref(i, false)
				src = ins[i]
			}
		}
		if st.writes() {
			if st.scratch {
				dsts[i] = pl.Scratch(rebindSize)
			} else {
				outs[i] = ref(i, true)
				dsts[i] = outs[i]
			}
		}
		for _, dep := range st.deps {
			opts = append(opts, offload.After(stages[dep]))
		}
		switch st.op {
		case dsa.OpMemmove:
			stages[i] = pl.Copy(dsts[i], src, rebindSize, opts...)
		case dsa.OpCopyCRC:
			stages[i] = pl.CopyCRC(dsts[i], src, rebindSize, uint32(i), opts...)
		case dsa.OpCRCGen:
			stages[i] = pl.CRC32(src, rebindSize, uint32(i), opts...)
		case dsa.OpFill:
			stages[i] = pl.Fill(dsts[i], rebindSize, 0x0101010101010101*uint64(i+1), opts...)
		}
	}
	return stages, ins, outs
}

// runRebind submits shape iters times on a fresh two-socket rig, either
// one compiled pipeline rebound per run or a pipeline built fresh per run,
// and returns what each run did plus the tenant's final stats.
func runRebind(t *testing.T, shape []rebindStage, seed uint64, iters int, faults, fresh bool) ([]rebindRun, offload.Stats) {
	r := newRig(t, 2)
	pol := offload.DefaultPolicy()
	if faults {
		for i, dev := range r.devs {
			if _, err := dev.InjectFaults(dsa.FaultConfig{Seed: seed + uint64(i), PageFaultPer4K: 0.02}); err != nil {
				t.Fatal(err)
			}
		}
		pol.RetryMax = 1
	}
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant(offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(shape))
	var in, out [2]*mem.Buffer
	for s := 0; s < 2; s++ {
		in[s], out[s] = tn.AllocOn(s, n*rebindSize), tn.AllocOn(s, n*rebindSize)
		sim.NewRand(seed + uint64(s)).Bytes(in[s].Bytes())
	}
	addr := func(b rebindBinding, i int, isOut bool) mem.Addr {
		if isOut {
			return out[b.outSock[i]].Addr(int64(i) * rebindSize)
		}
		return in[b.inSock[i]].Addr(int64(b.inSlot[i]) * rebindSize)
	}
	var runs []rebindRun
	r.run(func(p *sim.Proc) {
		rng := sim.NewRand(seed ^ 0x5bd1e995)
		var pl *offload.Pipeline
		var stages []*offload.Stage
		var ins, outs []offload.Ref
		if !fresh {
			pl = tn.NewPipeline()
			stages, ins, outs = declareShape(pl, shape, addr, nil)
		}
		for it := 0; it < iters; it++ {
			b := randBinding(rng, len(shape))
			if fresh {
				pl = tn.NewPipeline()
				stages, _, _ = declareShape(pl, shape, addr, &b)
			} else {
				for i := range shape {
					if ins[i] != (offload.Ref{}) {
						pl.Bind(ins[i], addr(b, i, false))
					}
					if outs[i] != (offload.Ref{}) {
						pl.Bind(outs[i], addr(b, i, true))
					}
				}
			}
			f, err := pl.Submit(p)
			if err != nil {
				t.Errorf("run %d: Submit: %v", it, err)
				return
			}
			res, err := f.Wait(p, offload.Poll)
			run := rebindRun{home: pl.Home(), failed: pl.FailedStage(), end: p.Now(), dur: res.Duration}
			if err != nil {
				run.err = err.Error()
			}
			for _, st := range stages {
				run.results = append(run.results, st.Result())
			}
			run.out = append(append(run.out, out[0].Bytes()...), out[1].Bytes()...)
			runs = append(runs, run)
			p.Sleep(sim.Time(time.Microsecond))
		}
	})
	return runs, tn.Stats()
}

// checkRebind asserts the rebind property for one shape: a compiled
// pipeline rebound and resubmitted behaves, run for run, exactly like a
// pipeline built fresh with the same addresses — destination bytes, stage
// results, FailedStage, Home and completion instants.
func checkRebind(t *testing.T, seed uint64, stages, iters int, faults bool) {
	shape := randShape(sim.NewRand(seed), stages)
	got, gotSt := runRebind(t, shape, seed, iters, faults, false)
	want, wantSt := runRebind(t, shape, seed, iters, faults, true)
	if len(got) != len(want) {
		t.Fatalf("rebound pipeline ran %d times, fresh pipelines %d", len(got), len(want))
	}
	for it := range want {
		g, w := got[it], want[it]
		if !bytes.Equal(g.out, w.out) {
			t.Fatalf("run %d: destination bytes differ from a fresh pipeline's", it)
		}
		g.out, w.out = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("run %d: rebound %+v, fresh %+v", it, g, w)
		}
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("tenant stats: rebound %+v, fresh %+v", gotSt, wantSt)
	}
}

// rebindSeeds are the shapes TestPipelineRebindMatchesFresh checks and
// FuzzPipelineRebind starts from: seed, stage count, fault injection.
var rebindSeeds = []struct {
	seed   uint64
	stages int
	faults bool
}{
	{1, 3, false}, {2, 5, false}, {3, 8, false}, {4, 12, false},
	{5, 6, true}, {6, 8, true},
}

func TestPipelineRebindMatchesFresh(t *testing.T) {
	for _, c := range rebindSeeds {
		t.Run(fmt.Sprintf("seed%d-stages%d-faults%v", c.seed, c.stages, c.faults), func(t *testing.T) {
			checkRebind(t, c.seed, c.stages, 6, c.faults)
		})
	}
	// The fault cases must exercise what they are for: some run fails a
	// stage or retries a chain.
	shape := randShape(sim.NewRand(6), 8)
	runs, st := runRebind(t, shape, 6, 6, true, false)
	failed := 0
	for _, r := range runs {
		if r.failed >= 0 {
			failed++
		}
	}
	if failed == 0 && st.Retries == 0 {
		t.Fatal("the fault case neither failed a stage nor retried a chain")
	}
}

func FuzzPipelineRebind(f *testing.F) {
	for _, c := range rebindSeeds {
		f.Add(c.seed, uint8(c.stages), c.faults)
	}
	f.Fuzz(func(t *testing.T, seed uint64, stages uint8, faults bool) {
		checkRebind(t, seed, 1+int(stages)%12, 4, faults)
	})
}

// newArgPipeline declares a Copy from one Arg to another, and returns the
// pipeline, the two Args and the source and destination buffers.
func newArgPipeline(t *testing.T) (*rig, *offload.Tenant, *offload.Pipeline, offload.Ref, offload.Ref, *mem.Buffer, *mem.Buffer) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tn.Alloc(4096), tn.Alloc(4096)
	sim.NewRand(9).Bytes(src.Bytes())
	pl := tn.NewPipeline()
	in, out := pl.Arg(), pl.Arg()
	pl.Copy(out, in, 4096)
	return r, tn, pl, in, out, src, dst
}

func TestPipelineUnboundArgRejected(t *testing.T) {
	r, tn, pl, in, out, src, dst := newArgPipeline(t)
	r.run(func(p *sim.Proc) {
		pl.Bind(in, src.Addr(0))
		if _, err := pl.Submit(p); err == nil {
			t.Error("pipeline with an unbound Arg submitted")
		}
		if st := tn.Stats(); st.Pipelines != 0 {
			t.Errorf("rejected submission counted: Pipelines = %d", st.Pipelines)
		}
		pl.Bind(out, dst.Addr(0))
		f, err := pl.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("bound pipeline did not copy")
	}
}

func TestPipelineBindNonArgRejected(t *testing.T) {
	r, _, pl, in, out, src, dst := newArgPipeline(t)
	r.run(func(p *sim.Proc) {
		pl.Bind(in, src.Addr(0))
		pl.Bind(out, dst.Addr(0))
		pl.Bind(offload.At(dst.Addr(0)), src.Addr(0))
		if _, err := pl.Submit(p); err == nil {
			t.Error("Bind of a fixed operand accepted")
		}
	})
}

func TestPipelineStageAfterSubmitRejected(t *testing.T) {
	r, _, pl, in, out, src, dst := newArgPipeline(t)
	r.run(func(p *sim.Proc) {
		pl.Bind(in, src.Addr(0))
		pl.Bind(out, dst.Addr(0))
		f, err := pl.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
		pl.CRC32(in, 4096, 0)
		if _, err := pl.Submit(p); err == nil {
			t.Error("pipeline resubmitted after a stage declared after its first Submit")
		}
	})
}

func TestPipelineResubmitInFlightRejected(t *testing.T) {
	r, tn, pl, in, out, src, dst := newArgPipeline(t)
	r.run(func(p *sim.Proc) {
		pl.Bind(in, src.Addr(0))
		pl.Bind(out, dst.Addr(0))
		f, err := pl.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := pl.Submit(p); err == nil {
			t.Error("pipeline resubmitted while in flight")
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
		// Once the Future resolves the pipeline is idle again.
		g, err := pl.Submit(p)
		if err != nil {
			t.Errorf("resubmit after the Future resolved: %v", err)
			return
		}
		if _, err := g.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
		// The first Future keeps its own result after the reuse.
		if res, err := f.Wait(p, offload.Poll); err != nil || !res.Hardware {
			t.Errorf("first Future after reuse: %+v, %v", res, err)
		}
	})
	if st := tn.Stats(); st.Pipelines != 2 {
		t.Errorf("Pipelines = %d, want 2 (the in-flight resubmit is refused before admission)", st.Pipelines)
	}
}

// TestPipelineResubmitAllocBudget pins the host allocations of one warmed
// rebind+Submit+Wait of an 8-stage pipeline (four CopyCRC→Copy messages,
// one fenced batch chain). Everything the pipeline and the device own is
// reused — the chain's submission Future and Completion, the batch state,
// child records and bound completion events — so what remains is the
// run's Future when the caller keeps it, and nothing when it releases it.
func TestPipelineResubmitAllocBudget(t *testing.T) {
	r := newRig(t, 2)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	const msgs, n = 4, int64(4096)
	src, dst := tn.AllocOn(0, msgs*n), tn.AllocOn(1, msgs*n)
	sim.NewRand(3).Bytes(src.Bytes())
	pl := tn.NewPipeline()
	var ins, outs [msgs]offload.Ref
	for m := range ins {
		staged := pl.Scratch(n)
		ins[m], outs[m] = pl.Arg(), pl.Arg()
		crc := pl.CopyCRC(staged, ins[m], n, 0)
		pl.Copy(outs[m], staged, n, offload.After(crc))
	}
	var kept, released float64
	r.run(func(p *sim.Proc) {
		release := false
		round := func() {
			for m := range ins {
				pl.Bind(ins[m], src.Addr(int64(m)*n))
				pl.Bind(outs[m], dst.Addr(int64(msgs-1-m)*n))
			}
			f, err := pl.Submit(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				t.Fatal(err)
			}
			if release {
				f.Release()
			}
		}
		for i := 0; i < 16; i++ {
			round()
		}
		kept = testing.AllocsPerRun(100, round)
		release = true
		round()
		released = testing.AllocsPerRun(100, round)
	})
	if kept != 1 || released != 0 {
		t.Errorf("warmed 8-stage rebind+Submit+Wait allocated %.2f times keeping its Future and %.2f releasing it, want 1 and 0", kept, released)
	}
	for m := int64(0); m < msgs; m++ {
		if !bytes.Equal(dst.Slice((msgs-1-m)*n, n), src.Slice(m*n, n)) {
			t.Fatalf("message %d not delivered", m)
		}
	}
}
