package offload_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/isal"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// A linear three-stage device DAG (copy → CRC → copy through a scratch
// intermediate) compiles into ONE fenced batch: one batch parent submitted,
// one admission, with per-stage results scattered from the child records.
func TestPipelineLinearChainFusesIntoOneBatch(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(4096)
	src := tn.Alloc(n)
	dst := tn.Alloc(n)
	sim.NewRand(1).Bytes(src.Bytes())

	pl := tn.NewPipeline()
	tmp := pl.Scratch(n)
	s1 := pl.Copy(tmp, offload.At(src.Addr(0)), n)
	s2 := pl.CRC32(tmp, n, 0, offload.After(s1))
	s3 := pl.Copy(offload.At(dst.Addr(0)), tmp, n, offload.After(s2))
	_ = s3

	r.run(func(p *sim.Proc) {
		f, err := pl.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		if !res.Hardware {
			t.Error("fused chain did not run on hardware")
		}
		if res.Duration <= 0 {
			t.Errorf("duration = %v", res.Duration)
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("pipeline did not move bytes end to end")
	}
	if want := uint64(isal.CRC32(0, src.Bytes())); s2.Result() != want {
		t.Fatalf("CRC stage result = %#x, want %#x", s2.Result(), want)
	}
	st := tn.Stats()
	if st.Pipelines != 1 {
		t.Errorf("Pipelines = %d, want 1", st.Pipelines)
	}
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want 1 (the whole chain fuses into one parent)", st.Batches)
	}
	if st.HWOps != 1 {
		t.Errorf("HWOps = %d, want 1 submission for the fused chain", st.HWOps)
	}
	if st.Shed != 0 || st.Delayed != 0 {
		t.Errorf("admission charged more than once: %+v", st)
	}
}

// A pipeline mixing engines — ISA-L software inflate, then device CRC and
// move — joins through one Future: the software stage runs between fused
// device chains on the same timeline, and its output feeds the device
// stages through a scratch intermediate.
func TestPipelineCrossEngineFutureJoin(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(4096)
	raw := make([]byte, n)
	for i := range raw {
		raw[i] = byte(i / 97) // runs, so RLE compresses
	}
	comp := tn.Alloc(2 * n)
	clen, err := isal.Compress(comp.Bytes(), raw)
	if err != nil {
		t.Fatal(err)
	}
	dst := tn.Alloc(n)

	pl := tn.NewPipeline()
	inflated := pl.Scratch(n)
	d := pl.Decompress(inflated, offload.At(comp.Addr(0)), int64(clen), n)
	c := pl.CRC32(inflated, n, 0, offload.After(d))
	m := pl.Copy(offload.At(dst.Addr(0)), inflated, n, offload.After(c))
	_ = m

	r.run(func(p *sim.Proc) {
		f, err := pl.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(dst.Bytes(), raw) {
		t.Fatal("decompress→CRC→move pipeline corrupted data")
	}
	if d.Result() != uint64(n) {
		t.Errorf("inflate produced %d bytes, want %d", d.Result(), n)
	}
	if want := uint64(isal.CRC32(0, raw)); c.Result() != want {
		t.Errorf("CRC over inflated data = %#x, want %#x", c.Result(), want)
	}
}

// A terminal fabric-send stage drains through the pipe's modelled
// bandwidth, so the pipeline's observed duration must cover the wire time.
func TestPipelineFabricSendStage(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1 << 20)
	src := tn.Alloc(n)
	nic := sim.NewPipe(r.e, 12.5) // ~100 Gb Ethernet

	pl := tn.NewPipeline()
	staged := pl.Scratch(n)
	s1 := pl.Copy(staged, offload.At(src.Addr(0)), n)
	pl.Send(nic, staged, n, offload.After(s1))

	var dur sim.Time
	r.run(func(p *sim.Proc) {
		f, err := pl.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		dur = res.Duration
	})
	if wire := sim.GBps(n, 12.5); dur < wire {
		t.Fatalf("pipeline duration %v below the %v wire time of its send stage", dur, wire)
	}
}

// A pipeline survives a SetPolicy rebuild between submissions: the first
// run completes under interrupt + coalesced delivery, the policy is rebuilt
// with a different moderation count, and the SAME Pipeline object re-submits
// and completes — fences, coalescer, and scratch reuse all cross the
// rebuild.
func TestPipelineAcrossSetPolicyCoalesceRebuild(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	pol := offload.DefaultPolicy()
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 4
	pol.CoalesceWindow = 2 * time.Microsecond
	tn.SetPolicy(pol)

	n := int64(8192)
	src := tn.Alloc(n)
	dst := tn.Alloc(n)
	sim.NewRand(2).Bytes(src.Bytes())

	pl := tn.NewPipeline()
	tmp := pl.Scratch(n)
	s1 := pl.Copy(tmp, offload.At(src.Addr(0)), n)
	crc := pl.CRC32(tmp, n, 0, offload.After(s1))
	pl.Copy(offload.At(dst.Addr(0)), tmp, n, offload.After(crc))

	runOnce := func() {
		r.run(func(p *sim.Proc) {
			f, err := pl.Submit(p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				t.Error(err)
			}
		})
	}
	runOnce()
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("first (coalesced-interrupt) run corrupted data")
	}
	want := uint64(isal.CRC32(0, src.Bytes()))
	if crc.Result() != want {
		t.Fatalf("first run CRC = %#x, want %#x", crc.Result(), want)
	}

	// Rebuild the coalescer with a different moderation count and re-drive
	// the same DAG over fresh data.
	pol.CoalesceCount = 1
	tn.SetPolicy(pol)
	sim.NewRand(3).Bytes(src.Bytes())
	for i := range dst.Bytes() {
		dst.Bytes()[i] = 0
	}
	runOnce()
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("post-rebuild run corrupted data")
	}
	if want := uint64(isal.CRC32(0, src.Bytes())); crc.Result() != want {
		t.Fatalf("post-rebuild CRC = %#x, want %#x", crc.Result(), want)
	}
	if got := tn.Stats().Pipelines; got != 2 {
		t.Errorf("Pipelines = %d, want 2", got)
	}
}

// The point of fusing: a 3-stage chain as one pipeline beats the same three
// operations submitted sequentially with a full submit→wait round trip
// between each.
func TestPipelineFusedBeatsSequential(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(4096)
	src := tn.Alloc(n)
	mid := tn.Alloc(n)
	dst := tn.Alloc(n)
	sim.NewRand(4).Bytes(src.Bytes())

	var fused, sequential sim.Time
	pl := tn.NewPipeline()
	tmp := pl.Scratch(n)
	s1 := pl.Copy(tmp, offload.At(src.Addr(0)), n)
	s2 := pl.CRC32(tmp, n, 0, offload.After(s1))
	pl.Copy(offload.At(dst.Addr(0)), tmp, n, offload.After(s2))
	r.run(func(p *sim.Proc) {
		f, err := pl.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		fused = res.Duration

		start := p.Now()
		for _, step := range []func() (*offload.Future, error){
			func() (*offload.Future, error) {
				return tn.Copy(p, mid.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			},
			func() (*offload.Future, error) {
				return tn.CRC32(p, mid.Addr(0), n, 0, offload.On(offload.Hardware))
			},
			func() (*offload.Future, error) {
				return tn.Copy(p, dst.Addr(0), mid.Addr(0), n, offload.On(offload.Hardware))
			},
		} {
			f, err := step()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
				return
			}
		}
		sequential = p.Now() - start
	})
	if fused >= sequential {
		t.Fatalf("fused chain %v not faster than sequential %v", fused, sequential)
	}
}

func TestPipelineDeclarationErrors(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	buf := tn.Alloc(4096)

	r.run(func(p *sim.Proc) {
		if _, err := tn.NewPipeline().Submit(p); err == nil {
			t.Error("empty pipeline submitted")
		}
		// A dependency on another pipeline's stage is a declaration bug.
		other := tn.NewPipeline()
		foreign := other.CRC32(offload.At(buf.Addr(0)), 4096, 0)
		pl := tn.NewPipeline()
		pl.CRC32(offload.At(buf.Addr(0)), 4096, 0, offload.After(foreign))
		if _, err := pl.Submit(p); err == nil {
			t.Error("cross-pipeline dependency submitted")
		}
	})
}

// A DAG wider than the device batch limit still completes: the compiler
// cuts the chain at MaxBatch, flushes, and continues — correctness over
// fusion width.
func TestPipelineWiderThanBatchLimit(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	width := 2*r.devs[0].Cfg.MaxBatch + 3
	n := int64(512)
	src := tn.Alloc(int64(width) * n)
	dst := tn.Alloc(int64(width) * n)
	sim.NewRand(5).Bytes(src.Bytes())

	pl := tn.NewPipeline()
	for i := 0; i < width; i++ {
		off := int64(i) * n
		pl.Copy(offload.At(dst.Addr(off)), offload.At(src.Addr(off)), n)
	}
	r.run(func(p *sim.Proc) {
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
		t.Fatal("over-wide pipeline dropped stages")
	}
	if st := tn.Stats(); st.Batches < 2 {
		t.Errorf("Batches = %d, want ≥2 (chain must have been cut)", st.Batches)
	}
}

// The scratch pool recycles: after warm-up, an alloc/free cycle of a
// steady-state working set is allocation-free and returns pooled buffers.
func TestScratchPoolZeroAllocs(t *testing.T) {
	r := newRig(t, 2)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{4096, 4096, 64 << 10}
	warm := func(socket int) {
		held := tn.AllocScratch(sizes[0], socket)
		held2 := tn.AllocScratch(sizes[1], socket)
		held3 := tn.AllocScratch(sizes[2], socket)
		tn.FreeScratch(held)
		tn.FreeScratch(held2)
		tn.FreeScratch(held3)
	}
	warm(0)
	warm(1)
	first := tn.AllocScratch(4096, 0)
	tn.FreeScratch(first)
	if again := tn.AllocScratch(4096, 0); again != first {
		t.Error("pool did not recycle the freed buffer")
	} else {
		tn.FreeScratch(again)
	}
	allocs := testing.AllocsPerRun(200, func() {
		warm(0)
		warm(1)
	})
	if allocs != 0 {
		t.Errorf("steady-state AllocScratch/FreeScratch allocated %.1f times per run, want 0", allocs)
	}
}

// The completion hook runs exactly once per run, in the run's driver
// process, at the instant the run's Future resolves, whether the run
// succeeded or its chain faulted past recovery; and the hook can submit
// the idle pipeline again. The submitter submits once, the first hook
// resubmits, and both runs' waiters wake at the instant their hook ran.
func TestPipelineThenRunsOncePerRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults bool // every 4 KB page faults, past a one-retry budget
	}{{"success", false}, {"chain fault", true}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1)
			if tc.faults {
				if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{Seed: 31, PageFaultPer4K: 1}); err != nil {
					t.Fatal(err)
				}
			}
			svc := r.service(t)
			tn, err := svc.NewTenant(offload.TenantPolicy(recoveryPolicy(1, 0)))
			if err != nil {
				t.Fatal(err)
			}
			n := int64(8 << 10)
			src, dst := tn.Alloc(n), tn.Alloc(n)
			sim.NewRand(5).Bytes(src.Bytes())
			pl := tn.NewPipeline()
			tmp := pl.Scratch(n)
			s1 := pl.Copy(tmp, offload.At(src.Addr(0)), n)
			pl.Copy(offload.At(dst.Addr(0)), tmp, n, offload.After(s1))

			type call struct {
				p    *sim.Proc
				f    *offload.Future
				at   sim.Time
				done bool
			}
			var calls []call
			var runs []*offload.Future
			pl.Then(func(p *sim.Proc, f *offload.Future) {
				calls = append(calls, call{p: p, f: f, at: p.Now(), done: f.Done()})
				if len(calls) > 1 {
					return
				}
				again, err := pl.Submit(p)
				if err != nil {
					t.Errorf("resubmit from the hook: %v", err)
					return
				}
				runs = append(runs, again)
			})
			var submitter *sim.Proc
			var resolved []sim.Time
			r.run(func(p *sim.Proc) {
				submitter = p
				f, err := pl.Submit(p)
				if err != nil {
					t.Error(err)
					return
				}
				runs = append(runs, f)
				for i := 0; i < len(runs); i++ {
					_, err := runs[i].Wait(p, offload.Poll)
					resolved = append(resolved, p.Now())
					if tc.faults != (err != nil) {
						t.Errorf("run %d: Wait error %v, want one only under faults", i, err)
					}
					if tc.faults && !errors.Is(err, offload.ErrFaulted) {
						t.Errorf("run %d: error %v does not wrap ErrFaulted", i, err)
					}
				}
			})
			if len(calls) != 2 || len(runs) != 2 {
				t.Fatalf("%d runs, hook called %d times: want 2 and 2", len(runs), len(calls))
			}
			for i, c := range calls {
				if c.f != runs[i] {
					t.Errorf("call %d: the hook got another run's Future", i)
				}
				if !c.done {
					t.Errorf("call %d: the Future was not resolved when the hook ran", i)
				}
				if c.p == submitter || c.p.Name() != "pipeline" {
					t.Errorf("call %d: hook ran in process %q, want the run's driver", i, c.p.Name())
				}
				if c.at != resolved[i] {
					t.Errorf("call %d: hook ran at %v, the Future resolved at %v", i, c.at, resolved[i])
				}
			}
			if calls[0].p == calls[1].p {
				t.Error("both runs' hooks ran in one process, want one driver per run")
			}
			if got := tn.Stats().Pipelines; got != 2 {
				t.Errorf("Pipelines = %d, want 2", got)
			}
			if tc.faults != (pl.FailedStage() >= 0) {
				t.Errorf("FailedStage() = %d with faults %v", pl.FailedStage(), tc.faults)
			}
		})
	}
}
