package dsa

import (
	"bytes"
	"strings"
	"testing"

	"dsasim/internal/isal"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// The edge cases of operand resolution: which malformed or faulting
// descriptors fail, when, and what a partial completion leaves behind.

// runTimed is runSync that also returns the completion's timeline.
func (r *rig) runTimed(t *testing.T, d Descriptor) (CompletionRecord, *Completion) {
	t.Helper()
	cl := NewClient(r.dev.WQs()[0], nil)
	var comp *Completion
	r.e.Go("timed", func(p *sim.Proc) {
		c, err := cl.RunSync(p, d, Poll)
		if err != nil {
			t.Errorf("RunSync: %v", err)
			return
		}
		comp = c
	})
	r.e.Run()
	if comp == nil {
		t.FailNow()
	}
	return comp.Record(), comp
}

// service returns the dispatch-to-finish span of a completion.
func service(c *Completion) sim.Time { return c.FinishTime - c.DispatchTime }

// A size-0 descriptor touches no byte, so its operands are never checked
// for page presence and it books no traffic. At a mapped address it
// succeeds; at an unmapped one it still runs the full engine pass and
// fails when its result is applied, at the instant the same descriptor
// over mapped operands completes, not at decode like a sized bad address.
// A cache flush applies nothing and so succeeds either way.
func TestZeroSizeDescriptorAddresses(t *testing.T) {
	const unmapped = mem.Addr(0xdead)
	// Each case runs on a fresh rig next to its mapped twin, so both pay
	// the same cold translation.
	run := func(d func(buf, lazy *mem.Buffer) Descriptor) (CompletionRecord, *Completion, DeviceStats) {
		r := newRig(t)
		buf := r.alloc(mem.Page4K)
		lazy := r.alloc(mem.Page4K, mem.Lazy())
		rec, c := r.runTimed(t, d(buf, lazy))
		return rec, c, r.dev.Stats()
	}
	cases := []struct {
		op               OpType
		mapped, unmapped func(buf, lazy *mem.Buffer) Descriptor
	}{
		{OpMemmove,
			func(b, _ *mem.Buffer) Descriptor {
				return Descriptor{Op: OpMemmove, PASID: 1, Src: b.Addr(0), Dst: b.Addr(64)}
			},
			func(b, _ *mem.Buffer) Descriptor {
				return Descriptor{Op: OpMemmove, PASID: 1, Src: unmapped, Dst: b.Addr(64)}
			}},
		{OpMemmove,
			func(b, _ *mem.Buffer) Descriptor {
				return Descriptor{Op: OpMemmove, PASID: 1, Src: b.Addr(0), Dst: b.Addr(64)}
			},
			func(b, _ *mem.Buffer) Descriptor {
				return Descriptor{Op: OpMemmove, PASID: 1, Src: b.Addr(0), Dst: unmapped}
			}},
		{OpFill,
			func(b, _ *mem.Buffer) Descriptor { return Descriptor{Op: OpFill, PASID: 1, Dst: b.Addr(0)} },
			func(_, _ *mem.Buffer) Descriptor { return Descriptor{Op: OpFill, PASID: 1, Dst: unmapped} }},
		{OpCRCGen,
			func(b, _ *mem.Buffer) Descriptor { return Descriptor{Op: OpCRCGen, PASID: 1, Src: b.Addr(0)} },
			func(_, _ *mem.Buffer) Descriptor { return Descriptor{Op: OpCRCGen, PASID: 1, Src: unmapped} }},
		{OpDualcast,
			func(b, _ *mem.Buffer) Descriptor {
				return Descriptor{Op: OpDualcast, PASID: 1, Src: b.Addr(0), Dst: b.Addr(0), Dst2: b.Addr(64)}
			},
			func(b, _ *mem.Buffer) Descriptor {
				return Descriptor{Op: OpDualcast, PASID: 1, Src: b.Addr(0), Dst: b.Addr(0), Dst2: unmapped}
			}},
	}
	for _, tc := range cases {
		ok, okc, _ := run(tc.mapped)
		if ok.Status != StatusSuccess || ok.BytesCompleted != 0 {
			t.Fatalf("mapped size-0 %v = %+v, want success with 0 bytes", tc.op, ok)
		}
		rec, c, st := run(tc.unmapped)
		if rec.Status != StatusError || rec.Err == nil || !strings.Contains(rec.Err.Error(), "not mapped") {
			t.Errorf("%v size-0 at an unmapped address = %+v, want a not-mapped error", tc.op, rec)
		}
		if rec.BytesCompleted != 0 {
			t.Errorf("%v failed with %d bytes completed", tc.op, rec.BytesCompleted)
		}
		if got, want := service(c), service(okc); got != want {
			t.Errorf("%v size-0 at an unmapped address completed after %v, want %v (applied at completion)", tc.op, got, want)
		}
		if st.BytesRead != 0 || st.BytesWritten != 0 || st.PageFaults != 0 {
			t.Errorf("%v size-0 moved bytes or faulted: %+v", tc.op, st)
		}
	}
	lazyRec, _, st := run(func(_, l *mem.Buffer) Descriptor {
		return Descriptor{Op: OpMemmove, PASID: 1, Src: l.Addr(0), Dst: l.Addr(64)}
	})
	if lazyRec.Status != StatusSuccess || st.PageFaults != 0 {
		t.Errorf("size-0 memmove on an unmapped page = %+v (%d faults), want success with no fault", lazyRec, st.PageFaults)
	}
	flush, _, _ := run(func(_, _ *mem.Buffer) Descriptor { return Descriptor{Op: OpCacheFlush, PASID: 1, Src: unmapped} })
	if flush.Status != StatusSuccess {
		t.Errorf("size-0 cache flush at an unmapped address = %+v, want success", flush)
	}
}

// A sized operand running past its buffer fails at decode, after the
// engine setup alone, and leaves the destination untouched.
func TestOverrunFailsAtDecode(t *testing.T) {
	r := newRig(t)
	src := r.alloc(2 * mem.Page4K)
	dst := r.alloc(mem.Page4K)
	sim.NewRand(21).Bytes(src.Bytes())
	rec, c := r.runTimed(t, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 2 * mem.Page4K})
	if rec.Status != StatusError || rec.Err == nil || !strings.Contains(rec.Err.Error(), "overruns buffer end") {
		t.Fatalf("overrun = %+v, want an overrun error", rec)
	}
	if got, want := service(c), r.dev.Cfg.Timing.EngineSetup; got != want {
		t.Errorf("overrun failed %v after dispatch, want the engine setup %v", got, want)
	}
	if !bytes.Equal(dst.Bytes(), make([]byte, mem.Page4K)) {
		t.Error("overrun wrote the destination")
	}
	if s := r.dev.Stats(); s.BytesRead != 0 || s.BytesWritten != 0 || s.PageFaults != 0 {
		t.Errorf("overrun booked traffic or faults: %+v", s)
	}
}

// A fault on the second page of a two-page operation completes the first
// page: the byte-wise operations apply that prefix (CopyCRC also reports
// the prefix's CRC) and report the faulting page.
func TestPartialFaultPrefixPerOp(t *testing.T) {
	const n = 2 * mem.Page4K
	for _, op := range []OpType{OpMemmove, OpFill, OpCopyCRC, OpDualcast} {
		t.Run(op.String(), func(t *testing.T) {
			r := newRig(t)
			src := r.alloc(n)
			dst := r.alloc(n)
			dst2 := r.alloc(n, mem.Lazy())
			if err := r.as.ResolveFault(dst2.Addr(0)); err != nil {
				t.Fatal(err)
			}
			sim.NewRand(22).Bytes(src.Bytes())
			d := Descriptor{Op: op, PASID: 1, Src: src.Addr(0), Size: n, Pattern: 0x0123456789ABCDEF, CRCSeed: 7}
			out := dst2 // the faulting destination
			switch op {
			case OpDualcast:
				d.Dst, d.Dst2 = dst.Addr(0), dst2.Addr(0)
			default:
				d.Dst = dst2.Addr(0)
			}
			rec := r.runSync(t, d)
			if rec.Status != StatusPageFault || rec.BytesCompleted != mem.Page4K || rec.FaultAddr != dst2.Addr(mem.Page4K) {
				t.Fatalf("record = %+v, want a page fault at %#x after %d bytes", rec, dst2.Addr(mem.Page4K), mem.Page4K)
			}
			want := make([]byte, n)
			if op == OpFill {
				isal.Fill(want[:mem.Page4K], d.Pattern)
			} else {
				copy(want[:mem.Page4K], src.Bytes())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Error("faulting destination does not hold exactly the completed prefix")
			}
			if op == OpDualcast && !bytes.Equal(dst.Bytes(), want) {
				t.Error("first dualcast destination does not hold exactly the completed prefix")
			}
			var crc uint64
			if op == OpCopyCRC {
				crc = uint64(isal.CRC32(d.CRCSeed, src.Slice(0, mem.Page4K)))
			}
			if rec.Result != crc {
				t.Errorf("result = %#x, want %#x", rec.Result, crc)
			}
		})
	}
}

// Batch children resolve their operands like portal descriptors: each
// child's record reports its own outcome.
func TestBatchChildResolution(t *testing.T) {
	r := newRig(t)
	src := r.alloc(2 * mem.Page4K)
	dst := r.alloc(2 * mem.Page4K)
	lazy := r.alloc(2*mem.Page4K, mem.Lazy())
	if err := r.as.ResolveFault(lazy.Addr(0)); err != nil {
		t.Fatal(err)
	}
	sim.NewRand(23).Bytes(src.Bytes())
	subs := []Descriptor{
		{Op: OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: mem.Page4K},
		{Op: OpMemmove, Src: mem.Addr(0xdead), Dst: dst.Addr(0)},
		{Op: OpMemmove, Src: src.Addr(mem.Page4K), Dst: dst.Addr(mem.Page4K), Size: 2 * mem.Page4K},
		{Op: OpMemmove, Src: src.Addr(0), Dst: lazy.Addr(0), Size: 2 * mem.Page4K},
		{Op: OpCRCGen, Src: src.Addr(0), Size: 2 * mem.Page4K},
	}
	rec := r.runSync(t, Descriptor{Op: OpBatch, PASID: 1, Descs: subs})
	if rec.Status != StatusBatchFail || rec.Result != 2 || len(rec.Children) != len(subs) {
		t.Fatalf("batch = %+v, want batch_fail with 2 of %d children succeeding", rec, len(subs))
	}
	want := []struct {
		status Status
		bytes  int64
		errHas string
	}{
		{StatusSuccess, mem.Page4K, ""},
		{StatusError, 0, "not mapped"},
		{StatusError, 0, "overruns buffer end"},
		{StatusPageFault, mem.Page4K, ""},
		{StatusSuccess, 2 * mem.Page4K, ""},
	}
	for i, w := range want {
		cr := rec.Children[i]
		if cr.Status != w.status || cr.BytesCompleted != w.bytes {
			t.Errorf("child %d = %+v, want %v with %d bytes", i, cr, w.status, w.bytes)
		}
		if w.errHas != "" && (cr.Err == nil || !strings.Contains(cr.Err.Error(), w.errHas)) {
			t.Errorf("child %d error = %v, want one containing %q", i, cr.Err, w.errHas)
		}
	}
	if !bytes.Equal(dst.Slice(0, mem.Page4K), src.Slice(0, mem.Page4K)) {
		t.Error("first child's copy not applied")
	}
	if !bytes.Equal(lazy.Slice(0, mem.Page4K), src.Slice(0, mem.Page4K)) || !bytes.Equal(lazy.Slice(mem.Page4K, mem.Page4K), make([]byte, mem.Page4K)) {
		t.Error("faulting child's prefix not applied exactly")
	}
	if got, want := rec.Children[4].Result, uint64(isal.CRC32(0, src.Bytes())); got != want {
		t.Errorf("CRC child = %#x, want %#x", got, want)
	}
}
