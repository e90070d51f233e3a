package offload

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dsasim/internal/sim"
)

// armWaiter is the chain state of a process that parks on a signal and,
// in the signal's wake step, starts a future's wait (Future.ArmWait).
type armWaiter struct {
	sig   sim.Signal
	f     *Future
	armed bool
}

func armIdle(p *sim.Proc, arg any) {
	p.ThenWait(&arg.(*armWaiter).sig, armWake)
}

func armWake(p *sim.Proc, arg any) {
	w := arg.(*armWaiter)
	w.armed = w.f.ArmWait(p, Interrupt)
}

// A future whose Interrupt wait is started from a chain step resolves
// exactly as a process that wakes for the signal and then calls Wait: the
// same Result and Duration, the same client wait time and core time, at
// the same instant, with one resume. The signal fires before and after
// the completion record, with and without interrupt coalescing. Before
// the record, the plain process resumes twice, for the signal and for
// the record. After it, the plain Wait's interrupt link is the next
// event and runs in place on the process, so it resumes once, for the
// signal (twice with every link scheduled).
func TestFutureArmWaitMatchesWait(t *testing.T) {
	type outcome struct {
		res      Result
		err      error
		now      sim.Time
		waitTime sim.Time
		busy     sim.Time
		resumes  int64
		armed    bool
	}
	run := func(t *testing.T, arm bool, sigAt sim.Time, coalesce int) outcome {
		r := newRingRig(t, 1, 32, 1)
		tn, err := r.svc.NewTenant(TenantPolicy(Policy{CoalesceCount: coalesce}))
		if err != nil {
			t.Fatal(err)
		}
		n := int64(16 << 10)
		src, dst := tn.Alloc(n), tn.Alloc(n)
		w := &armWaiter{}
		var out outcome
		r.e.Go("waiter", func(p *sim.Proc) {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, On(Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			w.f = f
			r.e.At(p.Now()+sigAt, func() { w.sig.Broadcast(r.e) })
			before := r.e.Resumes()
			if arm {
				p.Chain(armIdle, w)
			} else {
				p.Wait(&w.sig)
			}
			out.res, out.err = f.Wait(p, Interrupt)
			out.resumes = r.e.Resumes() - before
			out.now, out.armed = p.Now(), w.armed
			out.waitTime, out.busy = f.cl.WaitTime, tn.Core.BusyTime()
			f.Release()
		})
		r.e.Run()
		return out
	}
	const afterRecord = 50 * time.Microsecond
	for _, coalesce := range []int{0, 4} {
		for _, sigAt := range []sim.Time{100 * time.Nanosecond, afterRecord} {
			t.Run(fmt.Sprintf("coalesce=%d/signal=%v", coalesce, sigAt), func(t *testing.T) {
				plain, armed := run(t, false, sigAt, coalesce), run(t, true, sigAt, coalesce)
				if !armed.armed {
					t.Fatal("ArmWait armed nothing for a pending hardware future")
				}
				if plain.err != nil || armed.err != nil {
					t.Fatalf("errors: plain %v, armed %v", plain.err, armed.err)
				}
				if !reflect.DeepEqual(plain.res, armed.res) {
					t.Errorf("armed result %+v, plain %+v", armed.res, plain.res)
				}
				if plain.now != armed.now || plain.waitTime != armed.waitTime || plain.busy != armed.busy {
					t.Errorf("armed ends at %v, waited %v, core busy %v; plain %v, %v, %v",
						armed.now, armed.waitTime, armed.busy, plain.now, plain.waitTime, plain.busy)
				}
				wantPlain := int64(2)
				if sigAt == afterRecord {
					wantPlain = 1
				}
				if plain.resumes != wantPlain || armed.resumes != 1 {
					t.Errorf("resumes: plain %d, armed %d; want %d and 1", plain.resumes, armed.resumes, wantPlain)
				}
			})
		}
	}
}

// ArmWait leaves to Wait the futures it cannot start from a chain: a
// resolved one, and one already armed.
func TestFutureArmWaitDeclines(t *testing.T) {
	r := newRingRig(t, 1, 32, 1)
	tn, err := r.svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tn.Alloc(4096), tn.Alloc(4096)
	r.e.Go("waiter", func(p *sim.Proc) {
		sw, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 4096, On(Software))
		if err != nil {
			t.Error(err)
			return
		}
		hw, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 4096, On(Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		p.Chain(func(p *sim.Proc, _ any) {
			if sw.ArmWait(p, Interrupt) {
				t.Error("ArmWait armed a resolved future")
			}
			if !hw.ArmWait(p, Interrupt) {
				t.Error("ArmWait declined a pending hardware future")
			}
			if hw.ArmWait(p, Interrupt) {
				t.Error("ArmWait armed a future twice")
			}
		}, nil)
		if _, err := hw.Wait(p, Interrupt); err != nil || !hw.Done() {
			t.Errorf("armed future: err %v, done %v", err, hw.Done())
		}
	})
	r.e.Run()
}
