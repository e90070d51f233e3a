package dsa

import (
	"bytes"
	"testing"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dif"
	"dsasim/internal/isal"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// rig wires an engine, an SPR-like memory system, one device, and a bound
// address space for tests.
type rig struct {
	e    *sim.Engine
	sys  *mem.System
	dev  *Device
	as   *mem.AddressSpace
	node *mem.Node
}

func sprSystem(e *sim.Engine) *mem.System {
	return mem.NewSystem(e, mem.SystemConfig{
		Sockets: 2,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 1, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 0, Kind: mem.CXL, ReadLat: 250 * time.Nanosecond, WriteLat: 400 * time.Nanosecond, ReadGBps: 16, WriteGBps: 10},
		},
	})
}

// newRig builds a device with the given groups (default: one group with 4
// engines and one 32-entry dedicated WQ) and enables it.
func newRig(t *testing.T, groups ...GroupConfig) *rig {
	t.Helper()
	e := sim.New()
	sys := sprSystem(e)
	dev := New(e, sys, DefaultConfig("dsa0", 0))
	if len(groups) == 0 {
		groups = []GroupConfig{{
			Engines: 4,
			WQs:     []WQConfig{{Mode: Dedicated, Size: 32}},
		}}
	}
	for _, g := range groups {
		if _, err := dev.AddGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddressSpace(1)
	dev.BindPASID(as)
	return &rig{e: e, sys: sys, dev: dev, as: as, node: sys.Node(0)}
}

// runSync submits one descriptor synchronously and returns its record.
func (r *rig) runSync(t *testing.T, d Descriptor) CompletionRecord {
	t.Helper()
	wq := r.dev.WQs()[0]
	cl := NewClient(wq, nil)
	var rec CompletionRecord
	r.e.Go("sync", func(p *sim.Proc) {
		comp, err := cl.RunSync(p, d, Poll)
		if err != nil {
			t.Errorf("RunSync: %v", err)
			return
		}
		rec = comp.Record()
	})
	r.e.Run()
	return rec
}

func (r *rig) alloc(size int64, opts ...mem.AllocOption) *mem.Buffer {
	opts = append([]mem.AllocOption{mem.OnNode(r.node)}, opts...)
	return r.as.Alloc(size, opts...)
}

func TestMemmoveThroughDevice(t *testing.T) {
	r := newRig(t)
	src := r.alloc(8192)
	dst := r.alloc(8192)
	sim.NewRand(1).Bytes(src.Bytes())

	rec := r.runSync(t, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 8192})
	if rec.Status != StatusSuccess {
		t.Fatalf("status = %v (%v)", rec.Status, rec.Err)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("device copy did not move bytes")
	}
}

func TestFillAndComparePattern(t *testing.T) {
	r := newRig(t)
	buf := r.alloc(4096)
	pat := uint64(0xDEADBEEFCAFEF00D)
	if rec := r.runSync(t, Descriptor{Op: OpFill, PASID: 1, Dst: buf.Addr(0), Size: 4096, Pattern: pat}); rec.Status != StatusSuccess {
		t.Fatalf("fill status = %v", rec.Status)
	}
	rec := r.runSync(t, Descriptor{Op: OpComparePattern, PASID: 1, Src: buf.Addr(0), Size: 4096, Pattern: pat})
	if rec.Status != StatusSuccess || rec.Mismatch {
		t.Fatalf("compare_pattern = %+v", rec)
	}
	buf.Bytes()[1000] ^= 0xFF
	rec = r.runSync(t, Descriptor{Op: OpComparePattern, PASID: 1, Src: buf.Addr(0), Size: 4096, Pattern: pat})
	if !rec.Mismatch || rec.Result != 1000 {
		t.Fatalf("mismatch detection = %+v", rec)
	}
}

func TestCompareThroughDevice(t *testing.T) {
	r := newRig(t)
	a := r.alloc(2048)
	b := r.alloc(2048)
	sim.NewRand(2).Bytes(a.Bytes())
	copy(b.Bytes(), a.Bytes())
	rec := r.runSync(t, Descriptor{Op: OpCompare, PASID: 1, Src: a.Addr(0), Src2: b.Addr(0), Size: 2048})
	if rec.Mismatch {
		t.Fatal("identical buffers reported mismatch")
	}
	b.Bytes()[77] ^= 1
	rec = r.runSync(t, Descriptor{Op: OpCompare, PASID: 1, Src: a.Addr(0), Src2: b.Addr(0), Size: 2048})
	if !rec.Mismatch || rec.Result != 77 {
		t.Fatalf("compare mismatch = %+v", rec)
	}
}

func TestCRCAndCopyCRC(t *testing.T) {
	r := newRig(t)
	src := r.alloc(4096)
	dst := r.alloc(4096)
	sim.NewRand(3).Bytes(src.Bytes())
	want := uint64(isal.CRC32(0, src.Bytes()))

	rec := r.runSync(t, Descriptor{Op: OpCRCGen, PASID: 1, Src: src.Addr(0), Size: 4096})
	if rec.Status != StatusSuccess || rec.Result != want {
		t.Fatalf("crc_gen = %+v, want result %#x", rec, want)
	}
	rec = r.runSync(t, Descriptor{Op: OpCopyCRC, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096})
	if rec.Result != want || !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatalf("copy_crc result %#x want %#x", rec.Result, want)
	}
}

func TestDualcast(t *testing.T) {
	r := newRig(t)
	src := r.alloc(1024)
	d1 := r.alloc(1024)
	d2 := r.alloc(1024)
	sim.NewRand(4).Bytes(src.Bytes())
	rec := r.runSync(t, Descriptor{Op: OpDualcast, PASID: 1, Src: src.Addr(0), Dst: d1.Addr(0), Dst2: d2.Addr(0), Size: 1024})
	if rec.Status != StatusSuccess {
		t.Fatalf("dualcast = %+v", rec)
	}
	if !bytes.Equal(d1.Bytes(), src.Bytes()) || !bytes.Equal(d2.Bytes(), src.Bytes()) {
		t.Fatal("dualcast destinations differ from source")
	}
}

func TestDeltaThroughDevice(t *testing.T) {
	r := newRig(t)
	orig := r.alloc(1024)
	mod := r.alloc(1024)
	recbuf := r.alloc(2048)
	sim.NewRand(5).Bytes(orig.Bytes())
	copy(mod.Bytes(), orig.Bytes())
	mod.Bytes()[8] ^= 0xFF
	mod.Bytes()[512] ^= 0x0F

	rec := r.runSync(t, Descriptor{Op: OpCreateDelta, PASID: 1,
		Src: orig.Addr(0), Src2: mod.Addr(0), Dst: recbuf.Addr(0), Size: 1024, MaxDst: 2048})
	if rec.Status != StatusSuccess {
		t.Fatalf("create_delta = %+v", rec)
	}
	used := int64(rec.Result)
	if used == 0 {
		t.Fatal("no delta entries recorded")
	}
	rec = r.runSync(t, Descriptor{Op: OpApplyDelta, PASID: 1,
		Src: recbuf.Addr(0), Dst: orig.Addr(0), Size: used, MaxDst: 1024})
	if rec.Status != StatusSuccess {
		t.Fatalf("apply_delta = %+v", rec)
	}
	if !bytes.Equal(orig.Bytes(), mod.Bytes()) {
		t.Fatal("delta round trip failed")
	}
}

func TestDeltaRecordFullStatus(t *testing.T) {
	r := newRig(t)
	orig := r.alloc(1024)
	mod := r.alloc(1024)
	recbuf := r.alloc(16) // fits 1 entry only
	for i := range mod.Bytes() {
		mod.Bytes()[i] = 0xFF
	}
	rec := r.runSync(t, Descriptor{Op: OpCreateDelta, PASID: 1,
		Src: orig.Addr(0), Src2: mod.Addr(0), Dst: recbuf.Addr(0), Size: 1024, MaxDst: 16})
	if rec.Status != StatusRecordFull {
		t.Fatalf("status = %v, want record_full", rec.Status)
	}
}

func TestDIFThroughDevice(t *testing.T) {
	r := newRig(t)
	raw := r.alloc(4096)
	prot := r.alloc(dif.Block512.Protected() * 8)
	out := r.alloc(4096)
	sim.NewRand(6).Bytes(raw.Bytes())
	tags := dif.Tags{AppTag: 0xAA55, RefTag: 9, IncrementRef: true}

	rec := r.runSync(t, Descriptor{Op: OpDIFInsert, PASID: 1, Src: raw.Addr(0), Dst: prot.Addr(0),
		Size: 4096, DIFBlock: dif.Block512, DIFTags: tags})
	if rec.Status != StatusSuccess {
		t.Fatalf("dif_insert = %+v", rec)
	}
	rec = r.runSync(t, Descriptor{Op: OpDIFCheck, PASID: 1, Src: prot.Addr(0),
		Size: prot.Size, DIFBlock: dif.Block512, DIFTags: tags})
	if rec.Status != StatusSuccess {
		t.Fatalf("dif_check = %+v", rec)
	}
	rec = r.runSync(t, Descriptor{Op: OpDIFStrip, PASID: 1, Src: prot.Addr(0), Dst: out.Addr(0),
		Size: prot.Size, DIFBlock: dif.Block512, DIFTags: tags})
	if rec.Status != StatusSuccess || !bytes.Equal(out.Bytes(), raw.Bytes()) {
		t.Fatalf("dif_strip failed: %+v", rec)
	}
	// Corrupt one block: check must flag DIF error with the block index.
	prot.Bytes()[520+3] ^= 0x80
	rec = r.runSync(t, Descriptor{Op: OpDIFCheck, PASID: 1, Src: prot.Addr(0),
		Size: prot.Size, DIFBlock: dif.Block512, DIFTags: tags})
	if rec.Status != StatusDIFError || rec.Result != 1 {
		t.Fatalf("corrupted dif_check = %+v, want DIF error at block 1", rec)
	}
}

func TestDIFUpdateThroughDevice(t *testing.T) {
	r := newRig(t)
	raw := r.alloc(1024)
	prot := r.alloc(dif.Block512.Protected() * 2)
	out := r.alloc(dif.Block512.Protected() * 2)
	sim.NewRand(7).Bytes(raw.Bytes())
	oldTags := dif.Tags{AppTag: 1, RefTag: 5}
	newTags := dif.Tags{AppTag: 2, RefTag: 50, IncrementRef: true}

	if rec := r.runSync(t, Descriptor{Op: OpDIFInsert, PASID: 1, Src: raw.Addr(0), Dst: prot.Addr(0),
		Size: 1024, DIFBlock: dif.Block512, DIFTags: oldTags}); rec.Status != StatusSuccess {
		t.Fatalf("insert: %+v", rec)
	}
	rec := r.runSync(t, Descriptor{Op: OpDIFUpdate, PASID: 1, Src: prot.Addr(0), Dst: out.Addr(0),
		Size: prot.Size, DIFBlock: dif.Block512, DIFTags: oldTags, DIFTags2: newTags})
	if rec.Status != StatusSuccess {
		t.Fatalf("dif_update = %+v", rec)
	}
	if rec := r.runSync(t, Descriptor{Op: OpDIFCheck, PASID: 1, Src: out.Addr(0),
		Size: out.Size, DIFBlock: dif.Block512, DIFTags: newTags}); rec.Status != StatusSuccess {
		t.Fatalf("check with new tags: %+v", rec)
	}
}

func TestNopAndBadOpcode(t *testing.T) {
	r := newRig(t)
	if rec := r.runSync(t, Descriptor{Op: OpNop, PASID: 1}); rec.Status != StatusSuccess {
		t.Fatalf("nop = %+v", rec)
	}
	if rec := r.runSync(t, Descriptor{Op: OpType(0x7F), PASID: 1, Size: 64}); rec.Status != StatusError {
		t.Fatalf("bad opcode = %+v, want error", rec)
	}
}

func TestUnboundPASIDFails(t *testing.T) {
	r := newRig(t)
	buf := r.alloc(64)
	rec := r.runSync(t, Descriptor{Op: OpMemmove, PASID: 42, Src: buf.Addr(0), Dst: buf.Addr(0), Size: 64})
	if rec.Status != StatusError {
		t.Fatalf("unbound PASID = %+v, want error", rec)
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.New()
	sys := sprSystem(e)
	dev := New(e, sys, DefaultConfig("dsa0", 0))
	if _, err := dev.AddGroup(GroupConfig{Engines: 5, WQs: []WQConfig{{Size: 8}}}); err == nil {
		t.Fatal("engine overcommit accepted")
	}
	if _, err := dev.AddGroup(GroupConfig{Engines: 1, WQs: []WQConfig{{Size: 256}}}); err == nil {
		t.Fatal("WQ entry overcommit accepted")
	}
	if _, err := dev.AddGroup(GroupConfig{Engines: 1}); err == nil {
		t.Fatal("group without WQs accepted")
	}
	if _, err := dev.AddGroup(GroupConfig{Engines: 1, WQs: []WQConfig{{Size: 8, Priority: 99}}}); err == nil {
		t.Fatal("invalid priority accepted")
	}
	if err := dev.Enable(); err == nil {
		t.Fatal("enabling empty device succeeded")
	}
	if _, err := dev.AddGroup(GroupConfig{Engines: 2, WQs: []WQConfig{{Size: 32}}}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err == nil {
		t.Fatal("double enable succeeded")
	}
	if _, err := dev.AddGroup(GroupConfig{Engines: 1, WQs: []WQConfig{{Size: 8}}}); err == nil {
		t.Fatal("AddGroup after enable succeeded")
	}
}

func TestSubmitBeforeEnableFails(t *testing.T) {
	e := sim.New()
	dev := New(e, sprSystem(e), DefaultConfig("dsa0", 0))
	g, err := dev.AddGroup(GroupConfig{Engines: 1, WQs: []WQConfig{{Size: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WQs[0].Submit(Descriptor{Op: OpNop}); err == nil {
		t.Fatal("submit before enable succeeded")
	}
}

func TestReadBufferAutoDistribution(t *testing.T) {
	e := sim.New()
	dev := New(e, sprSystem(e), DefaultConfig("dsa0", 0))
	g1, _ := dev.AddGroup(GroupConfig{Engines: 1, ReadBufs: 32, WQs: []WQConfig{{Size: 8}}})
	g2, _ := dev.AddGroup(GroupConfig{Engines: 1, WQs: []WQConfig{{Size: 8}}})
	g3, _ := dev.AddGroup(GroupConfig{Engines: 1, WQs: []WQConfig{{Size: 8}}})
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	if g1.ReadBufs != 32 {
		t.Fatalf("explicit allocation changed: %d", g1.ReadBufs)
	}
	if g2.ReadBufs+g3.ReadBufs != 96-32 {
		t.Fatalf("auto allocation = %d+%d, want 64 total", g2.ReadBufs, g3.ReadBufs)
	}
}

func TestBatchFunctionalAndCR(t *testing.T) {
	r := newRig(t)
	n := 8
	src := r.alloc(int64(n) * 1024)
	dst := r.alloc(int64(n) * 1024)
	sim.NewRand(8).Bytes(src.Bytes())
	var subs []Descriptor
	for i := 0; i < n; i++ {
		subs = append(subs, Descriptor{
			Op: OpMemmove, Src: src.Addr(int64(i) * 1024), Dst: dst.Addr(int64(i) * 1024), Size: 1024,
		})
	}
	rec := r.runSync(t, Descriptor{Op: OpBatch, PASID: 1, Descs: subs})
	if rec.Status != StatusSuccess {
		t.Fatalf("batch = %+v", rec)
	}
	if rec.Result != uint64(n) {
		t.Fatalf("batch completed %d, want %d", rec.Result, n)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("batch copies incomplete")
	}
}

func TestBatchPartialFailure(t *testing.T) {
	r := newRig(t)
	buf := r.alloc(1024)
	subs := []Descriptor{
		{Op: OpMemmove, Src: buf.Addr(0), Dst: buf.Addr(512), Size: 512},
		{Op: OpType(0x7F), Size: 64}, // bad
	}
	rec := r.runSync(t, Descriptor{Op: OpBatch, PASID: 1, Descs: subs})
	if rec.Status != StatusBatchFail {
		t.Fatalf("batch status = %v, want batch_fail", rec.Status)
	}
	if rec.Result != 1 {
		t.Fatalf("succeeded = %d, want 1", rec.Result)
	}
}

func TestBatchValidation(t *testing.T) {
	r := newRig(t)
	wq := r.dev.WQs()[0]
	if _, err := wq.Submit(Descriptor{Op: OpBatch, PASID: 1, Descs: []Descriptor{{Op: OpNop}}}); err == nil {
		t.Fatal("batch of 1 accepted")
	}
	big := make([]Descriptor, r.dev.Cfg.MaxBatch+1)
	if _, err := wq.Submit(Descriptor{Op: OpBatch, PASID: 1, Descs: big}); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestBatchFenceOrdersChildren(t *testing.T) {
	r := newRig(t)
	a := r.alloc(4096)
	b := r.alloc(4096)
	c := r.alloc(4096)
	sim.NewRand(9).Bytes(a.Bytes())
	// copy a→b, FENCE, copy b→c: without the fence, b→c could read stale b.
	subs := []Descriptor{
		{Op: OpMemmove, Src: a.Addr(0), Dst: b.Addr(0), Size: 4096},
		{Op: OpMemmove, Flags: FlagFence, Src: b.Addr(0), Dst: c.Addr(0), Size: 4096},
	}
	rec := r.runSync(t, Descriptor{Op: OpBatch, PASID: 1, Descs: subs})
	if rec.Status != StatusSuccess {
		t.Fatalf("fenced batch = %+v", rec)
	}
	if !bytes.Equal(c.Bytes(), a.Bytes()) {
		t.Fatal("fence did not order dependent copies")
	}
}

func TestDrainWaitsForInflight(t *testing.T) {
	r := newRig(t)
	src := r.alloc(1 << 20)
	dst := r.alloc(1 << 20)
	wq := r.dev.WQs()[0]
	cl := NewClient(wq, nil)
	var copyDone, drainDone sim.Time
	r.e.Go("bench", func(p *sim.Proc) {
		comp, err := cl.Submit(p, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 1 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		drain, err := cl.Submit(p, Descriptor{Op: OpDrain, PASID: 1})
		if err != nil {
			t.Error(err)
			return
		}
		drain.Wait(p)
		drainDone = drain.FinishTime
		copyDone = comp.FinishTime
		if !comp.Done() {
			t.Error("drain completed before earlier copy")
		}
	})
	r.e.Run()
	if drainDone < copyDone {
		t.Fatalf("drain at %v before copy at %v", drainDone, copyDone)
	}
}

func TestPageFaultPartialCompletion(t *testing.T) {
	r := newRig(t)
	src := r.alloc(3 * mem.Page4K)
	dst := r.alloc(3*mem.Page4K, mem.Lazy())
	sim.NewRand(10).Bytes(src.Bytes())

	rec := r.runSync(t, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 3 * mem.Page4K})
	if rec.Status != StatusPageFault {
		t.Fatalf("status = %v, want page_fault", rec.Status)
	}
	if rec.BytesCompleted != 0 {
		t.Fatalf("BytesCompleted = %d, want 0 (first page unmapped)", rec.BytesCompleted)
	}
	if rec.FaultAddr != dst.Addr(0) {
		t.Fatalf("FaultAddr = %#x, want %#x", rec.FaultAddr, dst.Addr(0))
	}
}

func TestPageFaultBlockOnFaultResolves(t *testing.T) {
	r := newRig(t)
	src := r.alloc(3 * mem.Page4K)
	dst := r.alloc(3*mem.Page4K, mem.Lazy())
	sim.NewRand(11).Bytes(src.Bytes())

	recNoFault := r.runSync(t, Descriptor{Op: OpMemmove, Flags: FlagBlockOnFault, PASID: 1,
		Src: src.Addr(0), Dst: dst.Addr(0), Size: 3 * mem.Page4K})
	if recNoFault.Status != StatusSuccess {
		t.Fatalf("block-on-fault status = %v (%v)", recNoFault.Status, recNoFault.Err)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("block-on-fault copy incomplete")
	}
	if r.dev.Stats().PageFaults != 3 {
		t.Fatalf("faults = %d, want 3", r.dev.Stats().PageFaults)
	}
}

func TestPartialPrefixApplied(t *testing.T) {
	r := newRig(t)
	src := r.alloc(2 * mem.Page4K)
	dst := r.alloc(2*mem.Page4K, mem.Lazy())
	sim.NewRand(12).Bytes(src.Bytes())
	// Map only the first destination page: the copy should complete 4K.
	if err := r.as.ResolveFault(dst.Addr(0)); err != nil {
		t.Fatal(err)
	}
	rec := r.runSync(t, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 2 * mem.Page4K})
	if rec.Status != StatusPageFault || rec.BytesCompleted != mem.Page4K {
		t.Fatalf("partial completion = %+v, want 4096 bytes", rec)
	}
	if !bytes.Equal(dst.Slice(0, mem.Page4K), src.Slice(0, mem.Page4K)) {
		t.Fatal("completed prefix not applied")
	}
}

func TestATCHitsAndMisses(t *testing.T) {
	r := newRig(t)
	buf := r.alloc(64)
	dst := r.alloc(64)
	d := Descriptor{Op: OpMemmove, PASID: 1, Src: buf.Addr(0), Dst: dst.Addr(0), Size: 64}
	r.runSync(t, d)
	first := r.dev.Stats()
	if first.ATCMisses == 0 {
		t.Fatal("first access did not miss the ATC")
	}
	r.runSync(t, d)
	second := r.dev.Stats()
	if second.ATCHits <= first.ATCHits {
		t.Fatal("repeat access did not hit the ATC")
	}
	r.dev.FlushATC()
	r.runSync(t, d)
	third := r.dev.Stats()
	if third.ATCMisses <= second.ATCMisses {
		t.Fatal("flushed ATC still hit")
	}
}

func TestDeviceStatsTraffic(t *testing.T) {
	r := newRig(t)
	src := r.alloc(4096)
	dst := r.alloc(4096)
	r.runSync(t, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096})
	st := r.dev.Stats()
	if st.BytesRead != 4096 || st.BytesWritten != 4096 {
		t.Fatalf("traffic = %d read / %d written, want 4096/4096", st.BytesRead, st.BytesWritten)
	}
	if st.Completed != 1 || st.Submitted != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

func TestCacheControlSteersToDDIO(t *testing.T) {
	r := newRig(t)
	src := r.alloc(1 << 20)
	dst := r.alloc(1 << 20)
	llc := r.sys.SocketOf(0).LLC
	rec := r.runSync(t, Descriptor{Op: OpMemmove, Flags: FlagCacheControl, PASID: 1,
		Src: src.Addr(0), Dst: dst.Addr(0), Size: 1 << 20})
	if rec.Status != StatusSuccess {
		t.Fatalf("status = %v", rec.Status)
	}
	if got := llc.Occupancy(r.dev.Owner()); got == 0 {
		t.Fatal("cache-control write did not allocate in LLC")
	}
	if got := llc.Occupancy(r.dev.Owner()); got > llc.DDIOCapacity() {
		t.Fatalf("device occupancy %d exceeds DDIO partition %d", got, llc.DDIOCapacity())
	}
}

func TestNoCacheControlNoLLCFootprint(t *testing.T) {
	r := newRig(t)
	src := r.alloc(1 << 20)
	dst := r.alloc(1 << 20)
	r.runSync(t, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 1 << 20})
	if got := r.sys.SocketOf(0).LLC.Occupancy(r.dev.Owner()); got != 0 {
		t.Fatalf("memory-steered write left %d bytes in LLC", got)
	}
}

func TestCompletionTimelineMonotonic(t *testing.T) {
	r := newRig(t)
	src := r.alloc(4096)
	dst := r.alloc(4096)
	wq := r.dev.WQs()[0]
	cl := NewClient(wq, nil)
	r.e.Go("bench", func(p *sim.Proc) {
		comp, err := cl.RunSync(p, Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}, Poll)
		if err != nil {
			t.Error(err)
			return
		}
		if !(comp.SubmitTime <= comp.DispatchTime && comp.DispatchTime <= comp.FinishTime) {
			t.Errorf("timeline not monotonic: %v / %v / %v",
				comp.SubmitTime, comp.DispatchTime, comp.FinishTime)
		}
		if comp.Latency() <= 0 {
			t.Errorf("latency = %v", comp.Latency())
		}
	})
	r.e.Run()
}

// The batch processing unit fetches the descriptor array from the
// submitting core's memory, so a batch submitted from the remote socket
// pays the UPI round trip on the fetch that a local submitter does not.
// Data placement is identical in both runs; only the submitter moves.
func TestBatchFetchPricedAgainstSubmitterSocket(t *testing.T) {
	run := func(socket int) sim.Time {
		e := sim.New()
		sys := sprSystem(e)
		dev := New(e, sys, DefaultConfig("dsa0", 0))
		if _, err := dev.AddGroup(GroupConfig{
			Engines: 4,
			WQs:     []WQConfig{{Mode: Dedicated, Size: 32}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := dev.Enable(); err != nil {
			t.Fatal(err)
		}
		as := mem.NewAddressSpace(1)
		dev.BindPASID(as)
		core := cpu.NewCore(0, socket, sys, as, cpu.SPRModel())
		n := int64(4 << 10)
		src := as.Alloc(2*n, mem.OnNode(sys.Node(0)))
		dst := as.Alloc(2*n, mem.OnNode(sys.Node(0)))
		cl := NewClient(dev.WQs()[0], core)
		var lat sim.Time
		e.Go("batch", func(p *sim.Proc) {
			comp, err := cl.Submit(p, Descriptor{Op: OpBatch, PASID: 1, Descs: []Descriptor{
				{Op: OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: n},
				{Op: OpMemmove, Src: src.Addr(n), Dst: dst.Addr(n), Size: n},
			}})
			if err != nil {
				t.Error(err)
				return
			}
			comp.Wait(p)
			lat = comp.Latency()
		})
		e.Run()
		return lat
	}
	local := run(0)
	remote := run(1)
	if remote <= local {
		t.Fatalf("remote-submitter batch latency %v not above local %v", remote, local)
	}
	if diff := remote - local; diff < 70*time.Nanosecond {
		t.Fatalf("remote fetch penalty %v below the 70ns UPI hop", diff)
	}
}

// opAllocs runs d through a warmed Client.Submit → Wait(Poll) loop on r,
// handing each completion back with Release when release is set, and
// returns the host allocations per operation.
func opAllocs(t *testing.T, r *rig, d Descriptor, release bool) float64 {
	t.Helper()
	cl := NewClient(r.dev.WQs()[0], nil)
	var allocs float64
	r.e.Go("allocs", func(p *sim.Proc) {
		op := func() {
			c, err := cl.Submit(p, d)
			if err != nil {
				t.Error(err)
				return
			}
			cl.Wait(p, c, Poll)
			if st := c.Record().Status; st != StatusSuccess {
				t.Errorf("status %v", st)
			}
			if release {
				c.Release()
			}
		}
		for i := 0; i < 64; i++ {
			op()
		}
		allocs = testing.AllocsPerRun(200, op)
	})
	r.e.Run()
	return allocs
}

// The device hot path has a pinned per-descriptor allocation budget.
// Work items are pooled and their completion event is bound once, so a
// submitter that releases each completion allocates nothing; one that
// keeps them pays exactly the Completion it holds. A closure or slice
// creeping back in trips here rather than only in the benchmark harness.
func TestMemmove4KAllocBudget(t *testing.T) {
	r := newRig(t)
	src, dst := r.alloc(4<<10), r.alloc(4<<10)
	sim.NewRand(3).Bytes(src.Bytes())
	d := Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4 << 10}
	for _, tc := range []struct {
		release bool
		budget  float64
	}{{false, 1}, {true, 0}} {
		if allocs := opAllocs(t, r, d, tc.release); allocs > tc.budget {
			t.Errorf("4 KB memmove (release %v) allocated %.2f times per op, budget %.0f", tc.release, allocs, tc.budget)
		}
	}
}

// A released 16 × 1 KB batch allocates nothing: the parent's Completion
// and its batch state — aggregation counters, the child-record slice the
// caller reads and the bound fetch and completion events — are pooled per
// device and return together. Children are pooled works whose completions
// live inside them.
func TestBatch16AllocBudget(t *testing.T) {
	const children, size, budget = 16, 1 << 10, 0
	r := newRig(t)
	src, dst := r.alloc(children*size), r.alloc(children*size)
	sim.NewRand(4).Bytes(src.Bytes())
	subs := make([]Descriptor, children)
	for i := range subs {
		off := int64(i) * size
		subs[i] = Descriptor{Op: OpMemmove, Src: src.Addr(off), Dst: dst.Addr(off), Size: size}
	}
	d := Descriptor{Op: OpBatch, PASID: 1, Descs: subs}
	if allocs := opAllocs(t, r, d, true); allocs > budget {
		t.Errorf("16 × 1 KB batch allocated %.2f times per op, budget %d", allocs, budget)
	}
}
