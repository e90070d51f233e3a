package dsa

import (
	"reflect"
	"testing"
	"time"

	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// poolPassAt is when each workload pass starts; a pass must drain within
// poolPassSpan, long before the next begins.
var poolPassAt = [2]sim.Time{0, sim.Time(time.Millisecond)}

const poolPassSpan = 900 * time.Microsecond

// poolOp is everything software can observe about one submitted
// descriptor: its completion record (batch child records included), its
// timeline stamps, or the submission error.
type poolOp struct {
	Rec                      CompletionRecord
	Submit, Dispatch, Finish sim.Time
	Err                      string
}

// poolRig is a device, its buffers and a shared WQ small enough to back
// up, with a WQ disable window 3µs into each pass.
type poolRig struct {
	*rig
	src, dst, lazy *mem.Buffer
}

func newPoolRig(t *testing.T, passes []sim.Time) *poolRig {
	t.Helper()
	r := newRig(t, GroupConfig{Engines: 2, WQs: []WQConfig{{Mode: Shared, Size: 16}}})
	var disables []WQDisable
	for _, at := range passes {
		disables = append(disables, WQDisable{WQ: 0, At: at + 3*time.Microsecond, Dur: 500 * time.Nanosecond})
	}
	if _, err := r.dev.InjectFaults(FaultConfig{Seed: 1, WQDisables: disables}); err != nil {
		t.Fatal(err)
	}
	pr := &poolRig{rig: r, src: r.alloc(64 << 10), dst: r.alloc(64 << 10), lazy: r.alloc(4*mem.Page4K, mem.Lazy())}
	sim.NewRand(21).Bytes(pr.src.Bytes())
	// Map the first lazy page, so a fault there completes a prefix.
	if err := r.as.ResolveFault(pr.lazy.Addr(0)); err != nil {
		t.Fatal(err)
	}
	return pr
}

// desc draws one descriptor of the seeded mix: plain copies, batches,
// fenced batches poisoned by a faulting child, drains, and copies that
// fault partway into the lazily mapped buffer.
func (pr *poolRig) desc(rng *sim.Rand) Descriptor {
	copyDesc := func() Descriptor {
		n := int64(1+rng.Intn(8)) << 10
		off := int64(rng.Intn(48)) << 10
		return Descriptor{Op: OpMemmove, Src: pr.src.Addr(off), Dst: pr.dst.Addr(off), Size: n}
	}
	var d Descriptor
	switch k := rng.Intn(10); {
	case k < 4:
		d = copyDesc()
	case k < 6:
		subs := make([]Descriptor, 2+rng.Intn(6))
		for i := range subs {
			subs[i] = copyDesc()
		}
		d = Descriptor{Op: OpBatch, Descs: subs}
	case k < 7:
		fault := Descriptor{Op: OpMemmove, Src: pr.src.Addr(0), Dst: pr.lazy.Addr(0), Size: 2 * mem.Page4K}
		tail := copyDesc()
		tail.Flags |= FlagFence
		d = Descriptor{Op: OpBatch, Descs: []Descriptor{copyDesc(), fault, tail, copyDesc()}}
	case k < 8:
		d = Descriptor{Op: OpDrain}
	default:
		d = Descriptor{Op: OpMemmove, Src: pr.src.Addr(0), Dst: pr.lazy.Addr(0), Size: 3 * mem.Page4K}
	}
	d.PASID = 1
	return d
}

// pass runs the seeded workload from instant at: four submitters each
// issue twelve descriptors without waiting, then reap them all.
func (pr *poolRig) pass(t *testing.T, at sim.Time) []poolOp {
	t.Helper()
	const submitters, perSubmitter = 4, 12
	out := make([]poolOp, submitters*perSubmitter)
	pr.e.At(at, func() {
		for s := 0; s < submitters; s++ {
			s := s
			pr.e.Go("pool-submitter", func(p *sim.Proc) {
				rng := sim.NewRand(uint64(100 + s))
				cl := NewClient(pr.dev.WQs()[0], nil)
				comps := make([]*Completion, perSubmitter)
				for i := range comps {
					p.Sleep(sim.Time(rng.Intn(400)) * time.Nanosecond)
					c, err := cl.Submit(p, pr.desc(rng))
					if err != nil {
						out[s*perSubmitter+i].Err = err.Error()
						continue
					}
					comps[i] = c
				}
				for i, c := range comps {
					if c == nil {
						continue
					}
					c.Wait(p)
					out[s*perSubmitter+i] = poolOp{Rec: c.Record(), Submit: c.SubmitTime, Dispatch: c.DispatchTime, Finish: c.FinishTime}
				}
			})
		}
	})
	pr.e.RunUntil(at + poolPassSpan)
	for i, op := range out {
		if op.Err == "" && op.Finish == 0 {
			t.Fatalf("op %d still in flight %v after its pass began", i, poolPassSpan)
		}
	}
	return out
}

// freeSet returns the device's free list as a set, failing on a work
// listed twice (a double free).
func freeSet(t *testing.T, d *Device) map[*work]bool {
	t.Helper()
	set := make(map[*work]bool, len(d.free))
	for _, wk := range d.free {
		if set[wk] {
			t.Fatal("a work is on the free list twice")
		}
		set[wk] = true
	}
	return set
}

// TestWorkPoolReuseIsInvisible runs one seeded descriptor mix twice back to
// back on one device and once on a fresh device: the second pass, served
// entirely from recycled works, must produce the same completion records,
// child records and timeline stamps as the fresh device. The pool only
// allocates when its free list is empty, so the works it holds after the
// first pass are the peak number in flight; the second pass must hand back
// exactly those works and allocate no others.
func TestWorkPoolReuseIsInvisible(t *testing.T) {
	reused := newPoolRig(t, poolPassAt[:])
	reused.pass(t, poolPassAt[0])
	peak := freeSet(t, reused.dev)
	if len(peak) == 0 {
		t.Fatal("first pass returned no works to the pool")
	}
	reused.dev.FlushATC() // the fresh device starts with a cold ATC
	got := reused.pass(t, poolPassAt[1])
	after := freeSet(t, reused.dev)
	if !reflect.DeepEqual(after, peak) {
		t.Fatalf("pool after the second pass holds %d works, want the first pass's %d", len(after), len(peak))
	}

	fresh := newPoolRig(t, poolPassAt[1:])
	want := fresh.pass(t, poolPassAt[1])

	seen := map[Status]int{}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("op %d on recycled works = %+v, fresh device = %+v", i, got[i], want[i])
		}
		seen[want[i].Rec.Status]++
	}
	for _, st := range []Status{StatusSuccess, StatusBatchFail, StatusPageFault, StatusWQError} {
		if seen[st] == 0 {
			t.Errorf("the mix produced no %v completion (%v)", st, seen)
		}
	}
	if !reflect.DeepEqual(reused.dst.Bytes(), fresh.dst.Bytes()) {
		t.Error("destination bytes differ between the recycled and the fresh device")
	}
}
