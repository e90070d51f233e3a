package dsa

import (
	"reflect"
	"slices"
	"strings"
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
// up, with a WQ disable window 3µs into each pass. handles counts the
// distinct completions its passes were handed.
type poolRig struct {
	*rig
	src, dst, lazy *mem.Buffer
	handles        map[*Completion]bool
}

// poolReap is how a pass's submitters reap their completions: release
// hands each back once read; coal steers every submitter's interrupts
// through one coalescer and reaps by Poll and Interrupt waits in turn, so
// some records are released before their window delivers.
type poolReap struct {
	release, coal bool
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
	pr := &poolRig{rig: r, src: r.alloc(64 << 10), dst: r.alloc(64 << 10), lazy: r.alloc(4*mem.Page4K, mem.Lazy()),
		handles: map[*Completion]bool{}}
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
// issue twelve descriptors without waiting, then reap them all as reap
// says.
func (pr *poolRig) pass(t *testing.T, at sim.Time, reap poolReap) []poolOp {
	t.Helper()
	const submitters, perSubmitter = 4, 12
	out := make([]poolOp, submitters*perSubmitter)
	pr.e.At(at, func() {
		var coal *Coalescer
		if reap.coal {
			coal = NewCoalescer(pr.e, 4, 2*time.Microsecond, 0)
		}
		for s := 0; s < submitters; s++ {
			s := s
			pr.e.Go("pool-submitter", func(p *sim.Proc) {
				rng := sim.NewRand(uint64(100 + s))
				cl := NewClient(pr.dev.WQs()[0], nil)
				cl.Coal = coal
				comps := make([]*Completion, perSubmitter)
				for i := range comps {
					p.Sleep(sim.Time(rng.Intn(400)) * time.Nanosecond)
					c, err := cl.Submit(p, pr.desc(rng))
					if err != nil {
						out[s*perSubmitter+i].Err = err.Error()
						continue
					}
					pr.handles[c] = true
					comps[i] = c
				}
				for i, c := range comps {
					if c == nil {
						continue
					}
					switch {
					case !reap.coal:
						c.Wait(p)
					case i%2 == 0:
						cl.Wait(p, c, Poll)
					default:
						cl.Wait(p, c, Interrupt)
					}
					rec := c.Record()
					// The child records return with the completion.
					rec.Children = slices.Clone(rec.Children)
					out[s*perSubmitter+i] = poolOp{Rec: rec, Submit: c.SubmitTime, Dispatch: c.DispatchTime, Finish: c.FinishTime}
					if reap.release {
						c.Release()
					}
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
	reused.pass(t, poolPassAt[0], poolReap{})
	peak := freeSet(t, reused.dev)
	if len(peak) == 0 {
		t.Fatal("first pass returned no works to the pool")
	}
	reused.dev.FlushATC() // the fresh device starts with a cold ATC
	got := reused.pass(t, poolPassAt[1], poolReap{})
	after := freeSet(t, reused.dev)
	if !reflect.DeepEqual(after, peak) {
		t.Fatalf("pool after the second pass holds %d works, want the first pass's %d", len(after), len(peak))
	}

	fresh := newPoolRig(t, poolPassAt[1:])
	want := fresh.pass(t, poolPassAt[1], poolReap{})

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

// TestCompletionPoolReuseIsInvisible runs the seeded mix for two passes on
// a device whose submitters release every completion once read, and on
// one whose submitters never do, with plain waits and then with coalesced
// Poll and Interrupt waits: every record (batch children included),
// timeline stamp and destination byte must match, while the releasing
// device serves later submissions from recycled completions, batch state
// and interrupt records.
func TestCompletionPoolReuseIsInvisible(t *testing.T) {
	for _, coal := range []bool{false, true} {
		released := newPoolRig(t, poolPassAt[:])
		kept := newPoolRig(t, poolPassAt[:])
		submitted := 0
		for pass, at := range poolPassAt {
			got := released.pass(t, at, poolReap{release: true, coal: coal})
			want := kept.pass(t, at, poolReap{coal: coal})
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("coal %v pass %d op %d with Release = %+v, without = %+v", coal, pass, i, got[i], want[i])
				}
				if want[i].Err == "" {
					submitted++
				}
			}
		}
		if !reflect.DeepEqual(released.dst.Bytes(), kept.dst.Bytes()) {
			t.Errorf("coal %v: destination bytes differ with and without Release", coal)
		}
		if n := len(kept.handles); n != submitted {
			t.Fatalf("coal %v: %d submissions without Release got %d distinct completions", coal, submitted, n)
		}
		if n := len(released.handles); n >= submitted/2 {
			t.Errorf("coal %v: %d submissions with Release got %d distinct completions: the pool was not reused", coal, submitted, n)
		}
	}
}

// TestCompletionReleaseMisusePanics pins the loud failures of a misused
// completion: releasing one still in flight, and releasing one twice.
func TestCompletionReleaseMisusePanics(t *testing.T) {
	r := newRig(t)
	src, dst := r.alloc(4<<10), r.alloc(4<<10)
	d := Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4 << 10}
	cl := NewClient(r.dev.WQs()[0], nil)
	r.e.Go("misuse", func(p *sim.Proc) {
		c, err := cl.Submit(p, d)
		if err != nil {
			t.Error(err)
			return
		}
		wantPanic(t, "Release in flight", "in flight", c.Release)
		cl.Wait(p, c, Poll)
		c.Release()
		wantPanic(t, "second Release", "twice", c.Release)
	})
	r.e.Run()
}

// wantPanic calls fn and fails unless it panics with a message containing
// want.
func wantPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		v := recover()
		if v == nil {
			t.Errorf("%s did not panic", what)
		} else if msg, _ := v.(string); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %v, want a message containing %q", what, v, want)
		}
	}()
	fn()
}
