package offload_test

import (
	"bytes"
	"testing"
	"time"

	"dsasim/internal/dif"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// opBufs are one op case's operands: seeded inputs (src, src2) and
// zeroed outputs (dst, dst2), each large enough for a protected image.
type opBufs struct {
	src, src2, dst, dst2 *mem.Buffer
}

const (
	opN       = int64(16 << 10)
	opPattern = uint64(0x5A5A5A5A5A5A5A5A)
	opSeed    = uint32(0x1234)
)

var (
	opTags    = dif.Tags{AppTag: 3, RefTag: 12, IncrementRef: true}
	opNewTags = dif.Tags{AppTag: 9, RefTag: 40, IncrementRef: true}
	opProt    = opN / int64(dif.Block512) * dif.Block512.Protected()
)

// opCase is one Tenant op issued on a forced path.
type opCase struct {
	name string
	// prep shapes the seeded inputs when the op needs structured data.
	prep func(t *testing.T, b *opBufs)
	op   func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error)
	// check asserts op-specific outcomes on one path's result.
	check func(t *testing.T, b *opBufs, res offload.Result)
}

// waiter returns a function resolving one op's Future on p, passing
// submission errors through: waiter(p)(tn.Copy(p, ...)).
func waiter(p *sim.Proc) func(*offload.Future, error) (offload.Result, error) {
	return func(f *offload.Future, err error) (offload.Result, error) {
		if err != nil {
			return offload.Result{}, err
		}
		return f.Wait(p, offload.Poll)
	}
}

// protect writes the DIF-protected image of b.src into b.src2.
func protect(t *testing.T, b *opBufs) {
	t.Helper()
	if err := dif.Insert(b.src2.Bytes()[:opProt], b.src.Bytes()[:opN], dif.Block512, opTags); err != nil {
		t.Fatal(err)
	}
}

// sameBytes asserts the first n bytes of a and b are equal.
func sameBytes(t *testing.T, what string, a, b *mem.Buffer, n int64) {
	t.Helper()
	if !bytes.Equal(a.Bytes()[:n], b.Bytes()[:n]) {
		t.Error(what)
	}
}

func opCases() []opCase {
	return []opCase{
		{name: "copy",
			op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
				return waiter(p)(tn.Copy(p, b.dst.Addr(0), b.src.Addr(0), opN, on))
			},
			check: func(t *testing.T, b *opBufs, _ offload.Result) { sameBytes(t, "copy incomplete", b.dst, b.src, opN) }},
		{name: "fill", op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
			return waiter(p)(tn.Fill(p, b.dst.Addr(0), opN, opPattern, on))
		}},
		{name: "compare",
			prep: func(t *testing.T, b *opBufs) {
				copy(b.src2.Bytes(), b.src.Bytes())
				b.src2.Bytes()[777] ^= 0xFF
			},
			op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
				return waiter(p)(tn.Compare(p, b.src.Addr(0), b.src2.Addr(0), opN, on))
			},
			check: func(t *testing.T, _ *opBufs, res offload.Result) {
				if !res.Mismatch || res.Offset != 777 {
					t.Errorf("compare = mismatch %v at %d, want true at 777", res.Mismatch, res.Offset)
				}
			}},
		{name: "compare-pattern",
			prep: func(t *testing.T, b *opBufs) {
				for i := range b.src2.Bytes() {
					b.src2.Bytes()[i] = 0x5A
				}
				b.src2.Bytes()[9999] = 0
			},
			op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
				return waiter(p)(tn.ComparePattern(p, b.src2.Addr(0), opN, opPattern, on))
			},
			check: func(t *testing.T, _ *opBufs, res offload.Result) {
				if !res.Mismatch || res.Offset != 9999 {
					t.Errorf("pattern compare = mismatch %v at %d, want true at 9999", res.Mismatch, res.Offset)
				}
			}},
		{name: "crc32", op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
			return waiter(p)(tn.CRC32(p, b.src.Addr(0), opN, opSeed, on))
		}},
		{name: "copy-crc", op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
			return waiter(p)(tn.CopyCRC(p, b.dst.Addr(0), b.src.Addr(0), opN, opSeed, on))
		}},
		{name: "dualcast",
			op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
				return waiter(p)(tn.Dualcast(p, b.dst.Addr(0), b.dst2.Addr(0), b.src.Addr(0), opN, on))
			},
			check: func(t *testing.T, b *opBufs, _ offload.Result) {
				sameBytes(t, "dualcast missed dst1", b.dst, b.src, opN)
				sameBytes(t, "dualcast missed dst2", b.dst2, b.src, opN)
			}},
		{name: "delta",
			prep: func(t *testing.T, b *opBufs) {
				copy(b.src2.Bytes(), b.src.Bytes())
				b.src2.Bytes()[100] ^= 0xFF
				b.src2.Bytes()[5000] ^= 0x0F
			},
			// Create the orig→mod record, then replay it onto orig: the
			// round trip must reproduce mod exactly.
			op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
				res, err := waiter(p)(tn.CreateDelta(p, b.dst.Addr(0), b.src.Addr(0), b.src2.Addr(0), opN, b.dst.Size, on))
				if err != nil || res.Size == 0 {
					return res, err
				}
				_, err = waiter(p)(tn.ApplyDelta(p, b.src.Addr(0), b.dst.Addr(0), res.Size, opN, on))
				return res, err
			},
			check: func(t *testing.T, b *opBufs, res offload.Result) {
				if res.Size == 0 {
					t.Error("delta record is empty")
				}
				sameBytes(t, "delta create→apply did not round-trip", b.src, b.src2, opN)
			}},
		{name: "dif-insert",
			op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
				return waiter(p)(tn.DIFInsert(p, b.dst.Addr(0), b.src.Addr(0), opN, dif.Block512, opTags, on))
			},
			check: func(t *testing.T, b *opBufs, _ offload.Result) {
				if err := dif.Check(b.dst.Bytes()[:opProt], dif.Block512, opTags); err != nil {
					t.Errorf("inserted image does not verify: %v", err)
				}
			}},
		{name: "dif-check", prep: protect,
			op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
				return waiter(p)(tn.DIFCheck(p, b.src2.Addr(0), opProt, dif.Block512, opTags, on))
			}},
		{name: "dif-strip", prep: protect,
			op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
				return waiter(p)(tn.DIFStrip(p, b.dst.Addr(0), b.src2.Addr(0), opProt, dif.Block512, opTags, on))
			},
			check: func(t *testing.T, b *opBufs, _ offload.Result) {
				sameBytes(t, "stripped image differs from the raw data", b.dst, b.src, opN)
			}},
		{name: "dif-update", prep: protect,
			op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
				return waiter(p)(tn.DIFUpdate(p, b.dst.Addr(0), b.src2.Addr(0), opProt, dif.Block512, opTags, opNewTags, on))
			},
			check: func(t *testing.T, b *opBufs, _ offload.Result) {
				if err := dif.Check(b.dst.Bytes()[:opProt], dif.Block512, opNewTags); err != nil {
					t.Errorf("updated image does not verify under the new tags: %v", err)
				}
			}},
	}
}

// runOp executes one case on a fresh single-device rig forced onto path,
// returning the result, the operand buffers, and the error.
func runOp(t *testing.T, c opCase, path offload.Path) (offload.Result, *opBufs, error) {
	t.Helper()
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	b := &opBufs{src: tn.Alloc(opProt), src2: tn.Alloc(opProt), dst: tn.Alloc(opProt), dst2: tn.Alloc(opProt)}
	sim.NewRand(11).Bytes(b.src.Bytes())
	sim.NewRand(12).Bytes(b.src2.Bytes())
	if c.prep != nil {
		c.prep(t, b)
	}
	var res offload.Result
	r.run(func(p *sim.Proc) { res, err = c.op(p, tn, b, offload.On(path)) })
	return res, b, err
}

// TestOpsAgreeAcrossPaths runs every Tenant op on the hardware and the
// software path and requires the same destination bytes and Result
// fields from both: the device model and the core executor are two
// implementations of one contract.
func TestOpsAgreeAcrossPaths(t *testing.T) {
	for _, c := range opCases() {
		t.Run(c.name, func(t *testing.T) {
			hw, hb, err := runOp(t, c, offload.Hardware)
			if err != nil {
				t.Fatalf("hardware: %v", err)
			}
			sw, sb, err := runOp(t, c, offload.Software)
			if err != nil {
				t.Fatalf("software: %v", err)
			}
			if !hw.Hardware || sw.Hardware {
				t.Errorf("Hardware attribution = %v/%v, want true/false", hw.Hardware, sw.Hardware)
			}
			if hw.CRC != sw.CRC || hw.Mismatch != sw.Mismatch || hw.Offset != sw.Offset || hw.Size != sw.Size {
				t.Errorf("results differ: hardware {crc %#x mismatch %v off %d size %d}, software {crc %#x mismatch %v off %d size %d}",
					hw.CRC, hw.Mismatch, hw.Offset, hw.Size, sw.CRC, sw.Mismatch, sw.Offset, sw.Size)
			}
			for _, pair := range [][2]*mem.Buffer{{hb.src, sb.src}, {hb.dst, sb.dst}, {hb.dst2, sb.dst2}} {
				sameBytes(t, "paths left different bytes behind", pair[0], pair[1], opProt)
			}
			if c.check != nil {
				c.check(t, hb, hw)
				c.check(t, sb, sw)
			}
		})
	}
	// A DIF check over garbage must fail on both paths.
	t.Run("dif-mismatch", func(t *testing.T) {
		c := opCase{op: func(p *sim.Proc, tn *offload.Tenant, b *opBufs, on offload.OpOption) (offload.Result, error) {
			return waiter(p)(tn.DIFCheck(p, b.src2.Addr(0), opProt, dif.Block512, opTags, on))
		}}
		for _, path := range []offload.Path{offload.Hardware, offload.Software} {
			if _, _, err := runOp(t, c, path); err == nil {
				t.Errorf("path %d: DIF check passed on garbage", path)
			}
		}
	})
}

// TestAutoPathRouting checks the G2 split: a sub-threshold Auto copy runs
// on the core, an above-threshold one on the device, and the byte
// counters land on the matching side.
func TestAutoPathRouting(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	small, big := tn.Alloc(2*1024), tn.Alloc(2*(64<<10))
	r.run(func(p *sim.Proc) {
		if _, err := waiter(p)(tn.Copy(p, small.Addr(1024), small.Addr(0), 1024)); err != nil {
			t.Error(err)
		}
		if _, err := waiter(p)(tn.Copy(p, big.Addr(64<<10), big.Addr(0), 64<<10)); err != nil {
			t.Error(err)
		}
	})
	st := tn.Stats()
	if st.SWOps != 1 || st.HWOps != 1 || st.SWBytes != 1024 || st.HWBytes != 64<<10 {
		t.Fatalf("routing = %d sw / %d hw ops, %d / %d bytes; want 1/1, 1024/65536",
			st.SWOps, st.HWOps, st.SWBytes, st.HWBytes)
	}
}

// TestBatchSubmit checks an explicit batch of four copies and a CRC
// completes as one parent reporting five finished descriptors.
func TestBatchSubmit(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(4096)
	src, dst := tn.Alloc(4*n), tn.Alloc(4*n)
	sim.NewRand(3).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		b := tn.NewBatch()
		for i := int64(0); i < 4; i++ {
			b.Copy(dst.Addr(i*n), src.Addr(i*n), n)
		}
		b.CRC32(src.Addr(0), n, 0)
		if b.Len() != 5 {
			t.Errorf("batch len = %d, want 5", b.Len())
		}
		res, err := waiter(p)(b.Submit(p))
		if err != nil {
			t.Error(err)
			return
		}
		if res.Record.Result != 5 {
			t.Errorf("batch completed %d of 5", res.Record.Result)
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("batch copies incomplete")
	}
	if st := tn.Stats(); st.Batches != 1 || st.HWBytes != 5*n {
		t.Fatalf("stats = %d batches / %d bytes, want 1 / %d", st.Batches, st.HWBytes, 5*n)
	}
}

// TestEmptyBatchRejected checks the device's ≥2 rule from the caller's
// side: a batch with no descriptors is refused at submission.
func TestEmptyBatchRejected(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	r.run(func(p *sim.Proc) {
		if _, err := tn.NewBatch().Submit(p); err == nil {
			t.Error("empty batch accepted")
		}
	})
}

// TestBatchSingleDescriptorCompletes checks a one-descriptor batch, which
// the device would refuse as a batch, still completes byte-exact.
func TestBatchSingleDescriptorCompletes(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tn.Alloc(4096), tn.Alloc(4096)
	sim.NewRand(4).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		if _, err := waiter(p)(tn.NewBatch().Copy(dst.Addr(0), src.Addr(0), 4096).Submit(p)); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("one-descriptor batch incomplete")
	}
}

// TestAsyncCopyDoneTracksCompletion checks Done on a hardware copy: false
// on return, true once the device has finished even before anyone waits,
// and still true after Wait.
func TestAsyncCopyDoneTracksCompletion(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	sim.NewRand(2).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		if f.Done() {
			t.Error("256KB copy completed instantaneously")
		}
		p.Sleep(time.Millisecond)
		if !f.Done() {
			t.Error("copy not done 1ms after submission")
		}
		res, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		if !res.Hardware {
			t.Error("forced-hardware copy ran in software")
		}
		if !f.Done() {
			t.Error("future not done after Wait")
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("async copy incomplete")
	}
}

// TestServiceRequiresWQs checks a service cannot come up without queues.
func TestServiceRequiresWQs(t *testing.T) {
	r := newRig(t, 1)
	if _, err := offload.NewService(r.e, r.sys, nil); err == nil {
		t.Fatal("service without work queues accepted")
	}
}

// TestRoundRobinAlternatesDevices checks the default scheduler spreads
// hardware ops evenly over two single-WQ devices.
func TestRoundRobinAlternatesDevices(t *testing.T) {
	r := newRig(t, 2)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tn.Alloc(8192), tn.Alloc(8192)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if _, err := waiter(p)(tn.Copy(p, dst.Addr(0), src.Addr(0), 8192, offload.On(offload.Hardware))); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if a, b := r.devs[0].Stats().Submitted, r.devs[1].Stats().Submitted; a != 5 || b != 5 {
		t.Fatalf("load balance = %d / %d, want 5 / 5", a, b)
	}
}
