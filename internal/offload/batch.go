package offload

import (
	"fmt"

	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Batch accumulates work descriptors for one explicit batch submission
// (§3.4 F2, guideline G1). Submit returns a Future for the batch parent.
type Batch struct {
	t     *Tenant
	descs []dsa.Descriptor
	flags dsa.Flags
}

// WithFlags ORs extra descriptor flags into the batch submission.
func (b *Batch) WithFlags(f dsa.Flags) *Batch {
	b.flags |= f
	return b
}

// NewBatch starts an empty batch.
func (t *Tenant) NewBatch() *Batch { return &Batch{t: t} }

// Len returns the number of queued descriptors.
func (b *Batch) Len() int { return len(b.descs) }

// Copy appends a copy operation.
func (b *Batch) Copy(dst, src mem.Addr, n int64) *Batch {
	b.descs = append(b.descs, dsa.Descriptor{Op: dsa.OpMemmove, Src: src, Dst: dst, Size: n})
	return b
}

// Fill appends a pattern-fill operation.
func (b *Batch) Fill(dst mem.Addr, n int64, pattern uint64) *Batch {
	b.descs = append(b.descs, dsa.Descriptor{Op: dsa.OpFill, Dst: dst, Size: n, Pattern: pattern})
	return b
}

// Compare appends a compare operation.
func (b *Batch) Compare(x, y mem.Addr, n int64) *Batch {
	b.descs = append(b.descs, dsa.Descriptor{Op: dsa.OpCompare, Src: x, Src2: y, Size: n})
	return b
}

// CRC32 appends a CRC generation operation.
func (b *Batch) CRC32(src mem.Addr, n int64, seed uint32) *Batch {
	b.descs = append(b.descs, dsa.Descriptor{Op: dsa.OpCRCGen, Src: src, Size: n, CRCSeed: seed})
	return b
}

// Dualcast appends a dualcast operation.
func (b *Batch) Dualcast(dst1, dst2, src mem.Addr, n int64) *Batch {
	b.descs = append(b.descs, dsa.Descriptor{Op: dsa.OpDualcast, Src: src, Dst: dst1, Dst2: dst2, Size: n})
	return b
}

// DIFInsert appends a DIF insert operation.
func (b *Batch) DIFInsert(dst, src mem.Addr, n int64, bs dif.BlockSize, tags dif.Tags) *Batch {
	b.descs = append(b.descs, dsa.Descriptor{
		Op: dsa.OpDIFInsert, Src: src, Dst: dst, Size: n, DIFBlock: bs, DIFTags: tags,
	})
	return b
}

// Fence appends a fence: descriptors after it wait for all before it.
func (b *Batch) Fence() *Batch {
	if len(b.descs) > 0 {
		b.descs = append(b.descs, dsa.Descriptor{Op: dsa.OpNop, Flags: dsa.FlagFence})
	}
	return b
}

// Submit sends the batch through the scheduler and returns the in-flight
// Future. A batch needs at least two descriptors (device rule);
// single-entry batches are submitted as plain descriptors.
//
// Under a data-aware scheduler (Placement), a batch whose descriptors are
// homed on different sockets is sharded into per-socket sub-batches, each
// submitted to a device local to its slice's data; the returned Future
// joins the sub-batch completions (Wait drains each once, the first error
// wins). When a later sub-batch fails to submit, the Future is still
// returned alongside the error so the already-submitted slices can be
// drained.
func (b *Batch) Submit(p *sim.Proc) (*Future, error) {
	if len(b.descs) == 0 {
		return nil, fmt.Errorf("offload: empty batch")
	}
	descs := b.descs
	b.descs = nil
	// One logical flush costs one admission token, however many per-socket
	// sub-batches placement shards it into: splitting is a placement
	// decision, not extra work, so the same batch must not cost more under
	// Placement than under NUMALocal (a shed flush counts once in
	// Stats.Shed).
	if err := b.t.admit(p); err != nil {
		return nil, err
	}
	var groups [][]int
	if len(descs) > 1 {
		groups = b.t.splitByHome(descs, b.flags)
	}
	if groups == nil {
		return b.t.submitSlice(p, descs, b.flags)
	}
	b.t.stats.Splits += int64(len(groups))
	parts := make([]*Future, 0, len(groups))
	for _, idx := range groups {
		sub := make([]dsa.Descriptor, len(idx))
		for j, i := range idx {
			sub[j] = descs[i]
		}
		f, err := b.t.submitSlice(p, sub, b.flags)
		if err != nil {
			parts = append(parts, b.t.completed(Result{}, err))
			return b.t.joinFutures(parts), err
		}
		parts = append(parts, f)
	}
	return b.t.joinFutures(parts), nil
}

// submitChain is the one chain submitter, shared by the batch paths and
// the pipeline driver: it submits an already-admitted run of descriptors
// as one batch parent, or a lone descriptor plain (the device's ≥2 rule)
// with its fence dropped, since nothing precedes it in a batch. pin is
// dispatch's. The device reads a batch's descriptor array asynchronously,
// so callers must not reuse descs while the chain is in flight.
func (t *Tenant) submitChain(p *sim.Proc, descs []dsa.Descriptor, flags dsa.Flags, pin int) (*Future, error) {
	if len(descs) > 1 {
		return t.dispatch(p, dsa.Descriptor{Op: dsa.OpBatch, Descs: descs}, flags, pin)
	}
	d := descs[0]
	d.Flags &^= dsa.FlagFence
	return t.dispatch(p, d, flags, pin)
}

// submitSlice submits one slice of an admitted batch or auto-batch flush;
// a refused slice is a failed operation.
func (t *Tenant) submitSlice(p *sim.Proc, descs []dsa.Descriptor, flags dsa.Flags) (*Future, error) {
	f, err := t.submitChain(p, descs, flags, unpinned)
	if err != nil {
		t.stats.Failures++
	}
	return f, err
}

// splitByHome groups descriptors into per-socket sub-batches by data home
// (the tenant's socket for a descriptor without one), returning index
// groups in first-seen order, with submission order preserved inside each
// group. Under Policy.LoadAware the grouping key is not the raw home but
// where the scheduler's cost model says the descriptor will actually run
// (Placement.route): a slice homed on a saturated socket detours with the
// rest of the traffic instead of being dutifully split out and submitted
// into the backlog, and slices whose routes coincide merge into one
// sub-batch. It returns nil — submit as one batch — when splitting is
// disabled (Policy.SplitBatches), the active scheduler is not data-aware
// (a blind policy would route every sub-batch to the same device, making
// the split pure parent overhead), the flush carries a Fence anywhere
// (fences order descriptors across the whole batch, which independent
// devices cannot honor), or every descriptor shares a target.
//
// flags are the batch-level flags the parent will be submitted with: a
// fence arriving via Batch.WithFlags (or the tenant policy) makes the chain
// exactly as unsplittable as a per-descriptor fence. The fence scan is a
// pure pre-pass, before any load-aware routing: route folds a sample into
// the placement cost EWMA and moves the hysteresis incumbent, so
// discovering a mid-chain fence only after routing earlier descriptors
// would leave phantom route state behind for a flush that is then never
// split — under a saturated socket those phantom samples can flip the
// detour decision for unrelated traffic.
func (t *Tenant) splitByHome(descs []dsa.Descriptor, flags dsa.Flags) [][]int {
	if !t.policy.SplitBatches || t.S.place == nil {
		return nil
	}
	if (flags|t.policy.Flags)&dsa.FlagFence != 0 {
		return nil
	}
	for i := range descs {
		if descs[i].Flags&dsa.FlagFence != 0 || descs[i].Op == dsa.OpNop {
			return nil
		}
	}
	var groups [][]int
	bySocket := make(map[int]int, 2)
	// One logical flush is one routing decision per distinct home: the
	// cost model's EWMA folds one sample per route lookup, so pricing
	// every descriptor individually would compound the smoothing away
	// with flush width (and let the estimate drift mid-scan).
	var routed map[int]int
	for i := range descs {
		req := t.request(&descs[i])
		home, ok := dataSocket(req.SrcNode, req.DstNode)
		if !ok {
			home = t.Core.Socket
		}
		if req.LoadAware {
			if routed == nil {
				routed = make(map[int]int, 2)
			}
			r, ok := routed[home]
			if !ok {
				r = t.S.place.route(req, home)
				routed[home] = r
			}
			home = r
		}
		g, ok := bySocket[home]
		if !ok {
			g = len(groups)
			bySocket[home] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	if len(groups) < 2 {
		return nil
	}
	return groups
}

// AutoBatcher transparently coalesces sub-threshold Auto-path copies and
// fills into batch descriptors (G1 as policy): each absorbed operation
// immediately returns a pending Future, and the accumulated batch flushes
// once Policy.AutoBatch operations queue — or earlier, when any pending
// Future is waited on or Flush is called. Only operations without result
// values (copy and fill) coalesce; result-producing operations keep their
// own descriptors.
//
// Failure semantics are batch-granular: the device writes one completion
// record for the whole batch, so if any coalesced operation fails, every
// sibling Future resolves with the batch error (conservative — a sibling's
// copy may in fact have completed). Callers that redo on error stay
// correct because coalesced copies and fills are idempotent; the failure
// counts once toward Stats.Failures.
type AutoBatcher struct {
	t       *Tenant
	pending []dsa.Descriptor
	futs    []*Future
}

// Batcher returns the tenant's AutoBatcher, creating it on first use. It
// is functional even when Policy.AutoBatch is zero (explicit Add/Flush);
// the transparent path only engages when the policy enables it.
func (t *Tenant) Batcher() *AutoBatcher {
	if t.batcher == nil {
		t.batcher = &AutoBatcher{t: t}
	}
	return t.batcher
}

// Pending returns the number of queued, unflushed operations.
func (ab *AutoBatcher) Pending() int { return len(ab.pending) }

// add queues one descriptor and returns its pending Future, flushing when
// the policy's batch size is reached.
func (ab *AutoBatcher) add(p *sim.Proc, d dsa.Descriptor) (*Future, error) {
	ab.pending = append(ab.pending, d)
	f := ab.t.newFuture()
	f.op, f.ab, f.start = d.Op, ab, p.Now()
	ab.futs = append(ab.futs, f)
	ab.t.stats.Coalesce++
	limit := ab.t.policy.AutoBatch
	if devMax := ab.t.S.maxBatch; limit > devMax {
		limit = devMax
	}
	if limit > 0 && len(ab.pending) >= limit {
		if err := ab.Flush(p); err != nil {
			return f, err
		}
	}
	return f, nil
}

// Flush submits the queued operations and binds every pending Future to
// its batch completion. Under a data-aware scheduler a mixed-home flush is
// sharded into per-socket sub-batches (see Batch.Submit); each sub-batch's
// futures share one completion, so the wait cost is paid once per
// sub-batch and a failure resolves only that sub-batch's siblings. On a
// submission failure the affected futures resolve with the error, the
// remaining sub-batches are still submitted, and the first error is
// returned.
func (ab *AutoBatcher) Flush(p *sim.Proc) error {
	if len(ab.pending) == 0 {
		return nil
	}
	descs := ab.pending
	futs := ab.futs
	ab.pending = nil
	ab.futs = nil

	// As in Batch.Submit, the whole logical flush is admitted once; a
	// shed flush resolves every coalesced future with the error.
	if err := ab.t.admit(p); err != nil {
		failAll(futs, err)
		return err
	}
	groups := ab.t.splitByHome(descs, 0)
	if groups == nil {
		return ab.flushSlice(p, descs, futs)
	}
	ab.t.stats.Splits += int64(len(groups))
	var firstErr error
	for _, idx := range groups {
		sub := make([]dsa.Descriptor, len(idx))
		subFuts := make([]*Future, len(idx))
		for j, i := range idx {
			sub[j], subFuts[j] = descs[i], futs[i]
		}
		if err := ab.flushSlice(p, sub, subFuts); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flushSlice submits one run of an already-admitted flush as a batch (or
// a plain descriptor when alone) and binds its pending futures to the
// completion through a shared batchWait. On submission failure the slice's
// futures resolve with the error.
func (ab *AutoBatcher) flushSlice(p *sim.Proc, descs []dsa.Descriptor, futs []*Future) error {
	parent, err := ab.t.submitSlice(p, descs, 0)
	if err != nil {
		failAll(futs, err)
		return err
	}
	shared := &batchWait{live: len(futs)}
	for _, f := range futs {
		f.ab = nil
		f.cl = parent.cl
		f.comp = parent.comp
		f.sharedWait = shared
	}
	// The siblings own the completion now; the parent handle is spent.
	parent.comp = nil
	ab.t.freeFuture(parent)
	return nil
}

// failAll resolves queued auto-batch futures with a submission error.
func failAll(futs []*Future, err error) {
	for _, f := range futs {
		f.ab = nil
		f.done = true
		f.err = err
	}
}
