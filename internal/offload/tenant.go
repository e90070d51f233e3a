package offload

import (
	"errors"
	"fmt"

	"dsasim/internal/cpu"
	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// ErrTenantClosed is returned (wrapped) by every submission path of a
// tenant retired with Close. Futures already in flight at Close are not
// affected — they remain waitable and resolve normally.
var ErrTenantClosed = errors.New("tenant closed")

// Tenant is one client of the service: a PASID-bound address space and a
// submitting core, with its own policy, batcher, and counters. Tenants
// sharing a shared-mode WQ model true multi-process submission: each
// ENQCMD carries its own PASID, and the device resolves the address space
// per descriptor.
type Tenant struct {
	S    *Service
	AS   *mem.AddressSpace
	Core *cpu.Core

	class   QoSClass
	policy  Policy
	bucket  tokenBucket
	batcher *AutoBatcher
	clients map[*dsa.WQ]*dsa.Client

	// stats holds the live counters; Stats() returns a copy with Drifts
	// filled in.
	stats Stats

	// plane, when non-nil, is the tenant's sharded submission front end
	// (one per tenant; see NewPlane).
	plane *Plane

	// scratch pools released intermediate buffers by (node, size) so
	// pipeline flushes reuse instead of allocating (see scratch.go).
	scratch map[scratchKey][]*mem.Buffer

	// coal is the tenant's completion coalescer — one moderation vector
	// shared by every per-WQ client, so completions coalesce across WQs
	// and devices (a split batch's sub-batch interrupts merge into one
	// delivery per window). coalCount/coalWindow memoize the resolved
	// policy knobs so SetPolicy rebuilds the coalescer only when they
	// actually change; in-flight completions keep the window they were
	// submitted under.
	coal       *dsa.Coalescer
	coalCount  int
	coalWindow sim.Time

	// closed marks a retired tenant (Close).
	closed bool

	// futs is the free list of released Futures (see Future.Release).
	futs []*Future

	// overRate is admit's shed error, built on the first shed under the
	// current policy, so shedding allocates nothing per operation.
	overRate error
}

// Close retires the tenant: its queued auto-batch is flushed so no future
// is stranded unflushed, and every later submission — classic, plane lane,
// pipeline, or software fallback — fails with ErrTenantClosed. Operations
// already in flight are unaffected: their futures remain waitable and
// resolve through the normal completion path (the churn tests pin this,
// including under interrupt coalescing, where a closed tenant's last
// window still delivers). Closing an already-closed tenant is an error.
//
// Fleet-style churn closes tenants with work outstanding as a matter of
// course; the service keeps the PASID binding (address-space teardown is
// out of scope for the simulation), so a replacement tenant is simply
// NewTenant again.
func (t *Tenant) Close(p *sim.Proc) error {
	if t.closed {
		return fmt.Errorf("offload: close: %w", ErrTenantClosed)
	}
	if t.batcher != nil {
		t.batcher.Flush(p)
	}
	t.closed = true
	return nil
}

// Closed reports whether the tenant has been retired with Close.
func (t *Tenant) Closed() bool { return t.closed }

// recordSLO scores one completed operation's latency against the tenant's
// SLO budget. No-op without a budget.
func (t *Tenant) recordSLO(d sim.Time) {
	b := sim.Time(t.policy.SLOBudget)
	if b <= 0 {
		return
	}
	if d <= b {
		t.stats.SLOOk++
	} else {
		t.stats.SLOMiss++
	}
}

// Policy returns the tenant's active policy.
func (t *Tenant) Policy() Policy { return t.policy }

// SetPolicy replaces the tenant's policy (taking effect on the next
// operation; a pending auto-batch keeps its queued descriptors, and the
// admission bucket keeps its accrued tokens).
func (t *Tenant) SetPolicy(p Policy) { t.policy, t.overRate = p, nil }

// Class returns the tenant's QoS class.
func (t *Tenant) Class() QoSClass { return t.class }

// Stats returns a copy of the tenant counters. Drifts is read live from
// the telemetry plane: the regime shifts flagged on this tenant's
// completion streams so far.
func (t *Tenant) Stats() Stats {
	s := t.stats
	s.Drifts = t.S.met.tenantDrifts(t.AS.PASID)
	return s
}

// client returns the tenant's accounting client for wq, creating it on
// first use (and late-binding the PASID for WQs added after the tenant).
func (t *Tenant) client(wq *dsa.WQ) *dsa.Client {
	cl, ok := t.clients[wq]
	if !ok {
		wq.Dev.BindPASID(t.AS)
		cl = dsa.NewClient(wq, t.Core)
		t.clients[wq] = cl
	}
	return cl
}

// Coalescer returns the tenant's interrupt-moderation state per the
// resolved policy, or nil when the tenant's class delivers per descriptor.
// The coalescer is shared by all of the tenant's clients and rebuilt when
// the resolved knobs change.
func (t *Tenant) Coalescer() *dsa.Coalescer {
	count, window := t.coalesceParams()
	if count <= 1 {
		t.coal, t.coalCount, t.coalWindow = nil, count, window
		return nil
	}
	if t.coal != nil && count == t.coalCount && window != t.coalWindow && t.policy.CoalesceAdaptive {
		// Adaptive windows are re-estimated per submission; retune the
		// coalescer only on a ≥25% move, so inter-arrival jitter does not
		// churn rebuilds (each rebuild starts a fresh delivery window).
		diff := window - t.coalWindow
		if diff < 0 {
			diff = -diff
		}
		if 4*diff < t.coalWindow {
			window = t.coalWindow
		}
	}
	if t.coal == nil || t.coalCount != count || t.coalWindow != window {
		t.coal = dsa.NewCoalescer(t.S.E, count, window, t.S.coalesceTick())
		t.coalCount, t.coalWindow = count, window
	}
	return t.coal
}

// localNode returns the DRAM node on the tenant's socket (not merely the
// socket's first node, which can be a CXL expander). NewTenant verified
// the socket has at least one node, so the fallback cannot panic.
func (t *Tenant) localNode() *mem.Node {
	sock := t.S.Sys.SocketOf(t.Core.Socket)
	for _, n := range sock.Nodes {
		if n.Kind == mem.DRAM {
			return n
		}
	}
	return sock.Nodes[0]
}

// Alloc allocates a buffer on the tenant's local DRAM node. Additional
// mem options (page size, lazy mapping, explicit node) are honored; an
// explicit mem.OnNode placement overrides the local default.
func (t *Tenant) Alloc(size int64, opts ...mem.AllocOption) *mem.Buffer {
	opts = append([]mem.AllocOption{mem.OnNode(t.localNode())}, opts...)
	return t.AS.Alloc(size, opts...)
}

// AllocOn allocates on the platform node with the given id (0 = socket-0
// DRAM, 1 = socket-1 DRAM, 2 = CXL on SPR), so tiered-memory placement
// never needs to reach into the memory system directly.
func (t *Tenant) AllocOn(node int, size int64, opts ...mem.AllocOption) *mem.Buffer {
	opts = append([]mem.AllocOption{mem.OnNode(t.S.Sys.Node(node))}, opts...)
	return t.AS.Alloc(size, opts...)
}

// submitCfg collects per-operation options.
type submitCfg struct {
	path    Path
	noBatch bool
}

// OpOption customizes one operation. Options take and return the config
// by value, so resolving them leaks nothing to the heap.
type OpOption func(submitCfg) submitCfg

// On forces the execution path (overriding the Auto policy).
func On(path Path) OpOption {
	return func(c submitCfg) submitCfg { c.path = path; return c }
}

// NoBatch bypasses the AutoBatcher for this operation.
func NoBatch() OpOption {
	return func(c submitCfg) submitCfg { c.noBatch = true; return c }
}

func opCfg(opts []OpOption) submitCfg {
	var c submitCfg
	for _, o := range opts {
		c = o(c)
	}
	return c
}

// useHW resolves the path decision for an n-byte operation against the
// effective (possibly pressure-adapted) threshold.
func (t *Tenant) useHW(c submitCfg, n int64) bool {
	switch c.path {
	case Hardware:
		return true
	case Software:
		return false
	default:
		return n >= t.EffectiveThreshold()
	}
}

// autoBatchable reports whether an Auto-path sub-threshold operation
// should coalesce instead of running on the core (G1 over G2: batching
// amortizes the offload overhead that otherwise makes small transfers a
// core job, Fig 3). Only copies and fills coalesce: result-producing
// operations keep their own descriptors.
func (t *Tenant) autoBatchable(c submitCfg, d *dsa.Descriptor) bool {
	return (d.Op == dsa.OpMemmove || d.Op == dsa.OpFill) &&
		c.path == Auto && !c.noBatch && t.policy.AutoBatch > 0 && d.Size < t.EffectiveThreshold()
}

// admit applies the tenant's one token bucket to one logical hardware
// submission — a Future, a batch, a pipeline or a plane lane's entry:
// admitted immediately, shed with ErrAdmission, or — under
// Policy.AdmitWait — delayed until a token accrues. Each retry sleeps at
// least one interrupt-moderation window when the tenant coalesces:
// waking the moment one token accrues burns one wakeup per delayed
// submission, each delivering into a window that was going to close
// later anyway. The bucket keeps accruing while the submitter sleeps, so
// admitted throughput is unchanged. Non-coalescing tenants keep the exact
// wait. A tenant closed while the submission waited for its token
// refuses it.
func (t *Tenant) admit(p *sim.Proc) error {
	if t.closed {
		return fmt.Errorf("offload: %w", ErrTenantClosed)
	}
	rate, burst := t.policy.AdmitRate, t.policy.AdmitBurst
	ok, wait := t.bucket.take(p.Now(), rate, burst)
	if ok {
		return nil
	}
	if !t.policy.AdmitWait {
		t.stats.Shed++
		if t.overRate == nil {
			t.overRate = fmt.Errorf("offload: tenant over %.0f ops/s (burst %d): %w", rate, burst, ErrAdmission)
		}
		return t.overRate
	}
	t.stats.Delayed++
	var floor sim.Time
	if count, window := t.coalesceParams(); count > 1 {
		floor = window
	}
	for !ok {
		p.Sleep(max(wait, floor))
		t.stats.AdmitWakeups++
		ok, wait = t.bucket.take(p.Now(), rate, burst)
	}
	if t.closed {
		return fmt.Errorf("offload: %w", ErrTenantClosed)
	}
	return nil
}

// request builds the scheduler request for one descriptor, resolving the
// home nodes of the data it reads and writes. For a batch parent the first
// child stands in for the whole batch: the batch paths group children by
// home socket before submitting (batch.go), so any child's home is the
// slice's.
func (t *Tenant) request(d *dsa.Descriptor) Request {
	req := Request{
		Socket:    t.Core.Socket,
		Class:     t.class,
		Size:      d.Size,
		Topo:      t.S.topo,
		LoadAware: t.policy.LoadAware,
	}
	if t.S.place == nil {
		// No scheduler will read the data homes; skip the lookups.
		return req
	}
	src, dst := d.Src, d.Dst
	if d.Op == dsa.OpBatch && len(d.Descs) > 0 {
		src, dst = d.Descs[0].Src, d.Descs[0].Dst
	}
	if src != 0 {
		req.SrcNode = t.AS.NodeAt(src)
	}
	if dst != 0 {
		req.DstNode = t.AS.NodeAt(dst)
	}
	return req
}

// unpinned is dispatch's pin for descriptors routed by their data homes.
const unpinned = -1

// dispatch is the one hardware submission entry behind every path — a
// Future op, a batch or auto-batch slice, a pipeline chain, and every
// recovery re-submission. It stamps the tenant's PASID and flags, picks a
// WQ — from the descriptor's data homes, or on socket pin (a pipeline
// keeps its chains next to their scratch buffers) — then prepares,
// submits and counts the descriptor, a batch parent with its children's
// payload. Admission is the caller's job, and so is counting a refused
// submission as a failure: only the caller knows whether it ended an
// operation or one recovery attempt.
func (t *Tenant) dispatch(p *sim.Proc, d dsa.Descriptor, flags dsa.Flags, pin int) (*Future, error) {
	d.PASID = t.AS.PASID
	d.Flags |= t.policy.Flags | flags
	var req Request
	if pin == unpinned {
		req = t.request(&d)
	} else {
		req = Request{Socket: pin, Class: t.class, Size: d.Size, Topo: t.S.topo}
	}
	wq := t.S.sched.Pick(req, t.S.wqs)
	if wq == nil {
		return nil, fmt.Errorf("offload: scheduler %q returned no work queue", t.S.sched.Name())
	}
	cl := t.client(wq)
	// Re-resolve the moderation vector per submission so SetPolicy takes
	// effect on the next operation, as its contract promises.
	cl.Coal = t.Coalescer()
	// The operation's clock starts once its descriptor is prepared.
	start := p.Now() + wq.Dev.Cfg.Timing.DescPrepare
	comp, err := cl.PrepareSubmit(p, d, t.policy.MaxRetries)
	if err != nil {
		return nil, err
	}
	t.stats.HWOps++
	t.stats.HWBytes += d.Size
	if d.Op == dsa.OpBatch {
		t.stats.Batches++
		for i := range d.Descs {
			t.stats.HWBytes += d.Descs[i].Size
		}
	}
	f := t.newFuture()
	f.cl, f.comp, f.op, f.start, f.d = cl, comp, d.Op, start, d
	return f, nil
}

// do runs one operation under the tenant's path decision: admitted
// hardware submission at or above the (possibly adaptive) threshold,
// auto-batch coalescing for sub-threshold copies and fills when enabled,
// and the software executor otherwise. Every Tenant op is a descriptor
// handed to it.
func (t *Tenant) do(p *sim.Proc, d dsa.Descriptor, opts []OpOption) (*Future, error) {
	c := opCfg(opts)
	switch {
	case t.useHW(c, d.Size):
		if err := t.admit(p); err != nil {
			return nil, err
		}
		f, err := t.dispatch(p, d, 0, unpinned)
		if err != nil {
			t.stats.Failures++
		}
		return f, err
	case t.autoBatchable(c, &d):
		d.Flags = t.policy.Flags
		return t.Batcher().add(p, d)
	}
	if t.closed {
		return nil, fmt.Errorf("offload: %w", ErrTenantClosed)
	}
	res, err := t.execSW(p, &d, p.Now())
	if err != nil {
		t.stats.Failures++
		return nil, err
	}
	t.recordSLO(res.Duration)
	return t.completed(res, nil), nil
}

// execSW runs d on the tenant's core through RunOnCore — the CPU branch
// of every op and the fault fallback alike — charges the core time and
// counts the execution. It decodes the record the way a hardware result is
// decoded; Duration spans from start.
func (t *Tenant) execSW(p *sim.Proc, d *dsa.Descriptor, start sim.Time) (Result, error) {
	rec, dur, bytes, err := RunOnCore(t.Core, d)
	if err != nil {
		return Result{}, err
	}
	p.Sleep(dur)
	t.stats.SWOps++
	t.stats.SWBytes += bytes
	res := decode(d.Op, rec)
	res.Duration = p.Now() - start
	return res, nil
}

// RunOnCore is the one software executor: it runs descriptor d with c's
// kernels, sequentially and without advancing virtual time, and returns
// the completion record the device would have written, the core time the
// kernels cost and the bytes they touched. Every CPU counterpart of a
// descriptor op — a tenant's software path, its fault fallback and the
// figure baselines — runs here.
func RunOnCore(c *cpu.Core, d *dsa.Descriptor) (dsa.CompletionRecord, sim.Time, int64, error) {
	rec := dsa.CompletionRecord{Status: dsa.StatusSuccess}
	var (
		dur sim.Time
		err error
		val int64 // mismatch offset or delta-record size
		eq  bool
		crc uint32
	)
	bytes := d.Size
	switch d.Op {
	case dsa.OpMemmove:
		dur, err = c.Memcpy(d.Dst, d.Src, d.Size)
	case dsa.OpFill:
		dur, err = c.Memset(d.Dst, d.Size, d.Pattern)
	case dsa.OpDualcast:
		dur, err = c.Dualcast(d.Dst, d.Dst2, d.Src, d.Size)
	case dsa.OpCompare:
		val, eq, dur, err = c.Memcmp(d.Src, d.Src2, d.Size)
		rec.Result, rec.Mismatch = uint64(val), !eq
	case dsa.OpComparePattern:
		val, eq, dur, err = c.ComparePattern(d.Src, d.Size, d.Pattern)
		rec.Result, rec.Mismatch = uint64(val), !eq
	case dsa.OpCRCGen:
		crc, dur, err = c.CRC32(d.Src, d.Size, d.CRCSeed)
		rec.Result = uint64(crc)
	case dsa.OpCopyCRC:
		crc, dur, err = c.CopyCRC(d.Dst, d.Src, d.Size, d.CRCSeed)
		rec.Result = uint64(crc)
	case dsa.OpCreateDelta:
		val, dur, err = c.DeltaCreate(d.Dst, d.Src, d.Src2, d.Size, d.MaxDst)
		rec.Result = uint64(val)
		bytes = 2 * d.Size // the original and the modified image
	case dsa.OpApplyDelta:
		dur, err = c.DeltaApply(d.Dst, d.Src, d.Size, d.MaxDst)
	case dsa.OpDIFInsert:
		dur, err = c.DIFInsert(d.Dst, d.Src, d.Size, d.DIFBlock, d.DIFTags)
	case dsa.OpDIFCheck:
		dur, err = c.DIFCheck(d.Src, d.Size, d.DIFBlock, d.DIFTags)
	case dsa.OpDIFStrip:
		dur, err = c.DIFStrip(d.Dst, d.Src, d.Size, d.DIFBlock, d.DIFTags)
	case dsa.OpDIFUpdate:
		dur, err = c.DIFUpdate(d.Dst, d.Src, d.Size, d.DIFBlock, d.DIFTags, d.DIFTags2)
	default:
		err = fmt.Errorf("offload: %v has no software path", d.Op)
	}
	if err != nil {
		return dsa.CompletionRecord{}, 0, 0, err
	}
	return rec, dur, bytes, nil
}

// Copy moves n bytes from src to dst.
func (t *Tenant) Copy(p *sim.Proc, dst, src mem.Addr, n int64, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{Op: dsa.OpMemmove, Src: src, Dst: dst, Size: n}, opts)
}

// Fill writes the repeating 8-byte pattern over n bytes at dst.
func (t *Tenant) Fill(p *sim.Proc, dst mem.Addr, n int64, pattern uint64, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{Op: dsa.OpFill, Dst: dst, Size: n, Pattern: pattern}, opts)
}

// Compare checks n bytes at a and b for equality.
func (t *Tenant) Compare(p *sim.Proc, a, b mem.Addr, n int64, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{Op: dsa.OpCompare, Src: a, Src2: b, Size: n}, opts)
}

// ComparePattern checks n bytes at src against the repeating pattern.
func (t *Tenant) ComparePattern(p *sim.Proc, src mem.Addr, n int64, pattern uint64, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{Op: dsa.OpComparePattern, Src: src, Size: n, Pattern: pattern}, opts)
}

// CRC32 computes the seeded CRC-32 of n bytes at src.
func (t *Tenant) CRC32(p *sim.Proc, src mem.Addr, n int64, seed uint32, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{Op: dsa.OpCRCGen, Src: src, Size: n, CRCSeed: seed}, opts)
}

// CopyCRC copies n bytes and returns the CRC-32 of the data.
func (t *Tenant) CopyCRC(p *sim.Proc, dst, src mem.Addr, n int64, seed uint32, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{Op: dsa.OpCopyCRC, Src: src, Dst: dst, Size: n, CRCSeed: seed}, opts)
}

// Dualcast copies n bytes from src to both destinations.
func (t *Tenant) Dualcast(p *sim.Proc, dst1, dst2, src mem.Addr, n int64, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{Op: dsa.OpDualcast, Src: src, Dst: dst1, Dst2: dst2, Size: n}, opts)
}

// CreateDelta writes a delta record of orig→mod differences into record.
func (t *Tenant) CreateDelta(p *sim.Proc, record, orig, mod mem.Addr, n, maxRecord int64, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{
		Op: dsa.OpCreateDelta, Src: orig, Src2: mod, Dst: record, Size: n, MaxDst: maxRecord,
	}, opts)
}

// ApplyDelta replays a recordLen-byte delta record onto dst (dstLen bytes).
func (t *Tenant) ApplyDelta(p *sim.Proc, dst, record mem.Addr, recordLen, dstLen int64, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{
		Op: dsa.OpApplyDelta, Src: record, Dst: dst, Size: recordLen, MaxDst: dstLen,
	}, opts)
}

// DIFInsert generates protected blocks from n raw bytes at src.
func (t *Tenant) DIFInsert(p *sim.Proc, dst, src mem.Addr, n int64, bs dif.BlockSize, tags dif.Tags, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{
		Op: dsa.OpDIFInsert, Src: src, Dst: dst, Size: n, DIFBlock: bs, DIFTags: tags,
	}, opts)
}

// DIFCheck verifies n protected bytes at src.
func (t *Tenant) DIFCheck(p *sim.Proc, src mem.Addr, n int64, bs dif.BlockSize, tags dif.Tags, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{
		Op: dsa.OpDIFCheck, Src: src, Size: n, DIFBlock: bs, DIFTags: tags,
	}, opts)
}

// DIFStrip verifies and removes protection information.
func (t *Tenant) DIFStrip(p *sim.Proc, dst, src mem.Addr, n int64, bs dif.BlockSize, tags dif.Tags, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{
		Op: dsa.OpDIFStrip, Src: src, Dst: dst, Size: n, DIFBlock: bs, DIFTags: tags,
	}, opts)
}

// DIFUpdate rewrites protection information from old to new tags.
func (t *Tenant) DIFUpdate(p *sim.Proc, dst, src mem.Addr, n int64, bs dif.BlockSize, old, new dif.Tags, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{
		Op: dsa.OpDIFUpdate, Src: src, Dst: dst, Size: n, DIFBlock: bs, DIFTags: old, DIFTags2: new,
	}, opts)
}
