package offload_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// A one-stage pipeline submits its lone descriptor plain; its bytes are
// counted once, exactly as a Tenant.Copy of the same size.
func TestPipelineSingleStageCountsBytesOnce(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tn.Alloc(4096), tn.Alloc(4096)
	pl := tn.NewPipeline()
	pl.Copy(offload.At(dst.Addr(0)), offload.At(src.Addr(0)), 4096)
	r.run(func(p *sim.Proc) {
		if _, err := waiter(p)(pl.Submit(p)); err != nil {
			t.Error(err)
		}
	})
	if st := tn.Stats(); st.HWOps != 1 || st.HWBytes != 4096 {
		t.Fatalf("one-stage pipeline: %d hw ops / %d bytes, want 1 / 4096", st.HWOps, st.HWBytes)
	}
}

// recoveredBurst is a fault window that covers the first attempt's
// execution on every path but ends before any retry executes.
const recoveredBurst = sim.Time(time.Microsecond)

// accountingPath submits one 32 KB operation down one submission path and
// reports whether it ended successfully.
type accountingPath struct {
	name string
	run  func(t *testing.T, r *rig, tn *offload.Tenant) (ok bool)
}

// faultOutcome fails the test on any error other than a fault sentinel
// and reports whether the operation succeeded.
func faultOutcome(t *testing.T, err error) bool {
	t.Helper()
	if err != nil && !errors.Is(err, offload.ErrFaulted) && !errors.Is(err, offload.ErrDeviceFailed) {
		t.Fatalf("unexpected error: %v", err)
	}
	return err == nil
}

func accountingPaths() []accountingPath {
	const n = int64(32 << 10)
	return []accountingPath{
		{"future", func(t *testing.T, r *rig, tn *offload.Tenant) bool {
			src, dst := tn.Alloc(n), tn.Alloc(n)
			var err error
			r.run(func(p *sim.Proc) { _, err = waiter(p)(tn.Copy(p, dst.Addr(0), src.Addr(0), n)) })
			return faultOutcome(t, err)
		}},
		{"pipeline", func(t *testing.T, r *rig, tn *offload.Tenant) bool {
			src, dst := tn.Alloc(n), tn.Alloc(n)
			pl := tn.NewPipeline()
			tmp := pl.Scratch(n)
			s1 := pl.Copy(tmp, offload.At(src.Addr(0)), n)
			pl.Copy(offload.At(dst.Addr(0)), tmp, n, offload.After(s1))
			var err error
			r.run(func(p *sim.Proc) { _, err = waiter(p)(pl.Submit(p)) })
			return faultOutcome(t, err)
		}},
		{"plane", func(t *testing.T, r *rig, tn *offload.Tenant) bool {
			src, dst := tn.Alloc(n), tn.Alloc(n)
			pl, err := tn.NewPlane(1)
			if err != nil {
				t.Fatal(err)
			}
			ok := false
			pl.OnCompletion(func(_ sim.Time, done bool) { ok = done })
			r.run(func(p *sim.Proc) {
				d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: n}
				if err := pl.Lane(0).Submit(p, d); err != nil {
					t.Error(err)
				}
				pl.WaitInflight(p, 0)
			})
			return ok
		}},
	}
}

// TestRecoveryAccountingAcrossPaths holds the Future, pipeline and plane
// paths to one meaning of the recovery counters: Faults counts faulted
// hardware completions (the device's own InjectedFaults tally), Retries
// the re-submissions, Failures the operations that ended failed — a
// recovered operation adds none — and HWOps every hardware submission,
// the one first submission plus each retry. "recovered" faults only the
// first attempt; "terminal" faults every attempt.
func TestRecoveryAccountingAcrossPaths(t *testing.T) {
	storms := []struct {
		name string
		cfg  dsa.FaultConfig
	}{
		{"recovered", dsa.FaultConfig{Seed: 41, Bursts: []dsa.FaultBurst{{At: 0, Dur: recoveredBurst, Per4K: 1}}}},
		{"terminal", dsa.FaultConfig{Seed: 42, PageFaultPer4K: 1}},
	}
	for _, path := range accountingPaths() {
		for _, storm := range storms {
			for _, retryMax := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/%s/retry%d", path.name, storm.name, retryMax), func(t *testing.T) {
					r := newRig(t, 1)
					if _, err := r.devs[0].InjectFaults(storm.cfg); err != nil {
						t.Fatal(err)
					}
					pol := offload.DefaultPolicy()
					pol.RetryMax = retryMax
					tn, err := r.service(t).NewTenant(offload.TenantPolicy(pol))
					if err != nil {
						t.Fatal(err)
					}
					ok := path.run(t, r, tn)
					if want := storm.name == "recovered" && retryMax > 0; ok != want {
						t.Fatalf("operation ok = %v, want %v", ok, want)
					}
					faulted := r.devs[0].Stats().InjectedFaults
					if want := int64(1); storm.name == "terminal" {
						want += int64(retryMax)
						if faulted != want {
							t.Fatalf("device faulted %d attempts, want %d", faulted, want)
						}
					} else if faulted != want {
						t.Fatalf("device faulted %d attempts, want %d (the burst covers attempt 1 only)", faulted, want)
					}
					failures := int64(1)
					if ok {
						failures = 0
					}
					st := tn.Stats()
					if st.Faults != faulted || st.Retries != faulted-failures || st.Failures != failures {
						t.Errorf("Faults/Retries/Failures = %d/%d/%d, want %d/%d/%d",
							st.Faults, st.Retries, st.Failures, faulted, faulted-failures, failures)
					}
					if st.HWOps != 1+st.Retries {
						t.Errorf("HWOps = %d, want 1 first submission + %d retries", st.HWOps, st.Retries)
					}
				})
			}
		}
	}
}

// softCRC is a software pipeline stage: the CRC-32 of its source, run on
// the tenant's core by the software executor.
type softCRC struct{}

func (softCRC) Engine() string { return "isal" }

func (softCRC) Run(p *sim.Proc, t *offload.Tenant, io offload.StageIO) (uint64, error) {
	d := dsa.Descriptor{Op: dsa.OpCRCGen, Src: io.Src, Size: io.Size}
	rec, dur, _, err := offload.RunOnCore(t.Core, &d)
	if err != nil {
		return 0, err
	}
	p.Sleep(dur)
	return rec.Result, nil
}

// A pipeline is one operation against the SLO budget, however many
// chains it runs as: a device chain, a software stage and a second device
// chain score once, when the pipeline Future resolves.
func TestPipelineScoredOnceAgainstSLO(t *testing.T) {
	r := newRig(t, 1)
	pol := offload.DefaultPolicy()
	pol.SLOBudget = time.Second
	tn, err := r.service(t).NewTenant(offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(4096)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	pl := tn.NewPipeline()
	tmp := pl.Scratch(n)
	s1 := pl.Copy(tmp, offload.At(src.Addr(0)), n)
	s2 := pl.Exec(softCRC{}, offload.Ref{}, tmp, n, 0, offload.After(s1))
	pl.Copy(offload.At(dst.Addr(0)), tmp, n, offload.After(s2))
	r.run(func(p *sim.Proc) {
		f, err := pl.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ {
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
	})
	st := tn.Stats()
	if st.Batches != 0 || st.HWOps != 2 {
		t.Fatalf("pipeline ran as %d hw ops (%d batches), want two lone-descriptor chains", st.HWOps, st.Batches)
	}
	if st.SLOOk != 1 || st.SLOMiss != 0 {
		t.Fatalf("SLO ok=%d miss=%d, want the pipeline scored once: ok=1 miss=0", st.SLOOk, st.SLOMiss)
	}
}
