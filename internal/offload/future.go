package offload

import (
	"fmt"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// WaitMode aliases the device wait modes so callers need only this package:
// Poll spins, UMWait parks the core in the optimized wait state, Interrupt
// frees the core and pays delivery latency (§4.4).
type WaitMode = dsa.WaitMode

// Completion wait modes.
const (
	Poll      = dsa.Poll
	UMWait    = dsa.UMWait
	Interrupt = dsa.Interrupt
)

// Result is the outcome of one operation.
type Result struct {
	Record   dsa.CompletionRecord // hardware-path completion record
	CRC      uint32               // CRC32 / CopyCRC result
	Mismatch bool                 // Compare / ComparePattern mismatch
	Offset   int64                // first mismatch offset
	Size     int64                // delta-record bytes used
	Hardware bool                 // executed on DSA
	Duration sim.Time             // operation latency observed by the caller
}

// Future is one in-flight operation. Software-path operations complete
// before the Future is returned; hardware-path ones complete when the
// device writes the completion record; auto-batched ones complete when
// their batch flushes and finishes. Wait is idempotent: the first call
// resolves the result, later calls return it without re-accounting.
//
// Futures come from a per-tenant free list. Release hands a resolved one
// back, together with the completion it resolved from; a caller that
// never releases leaves both to the garbage collector.
type Future struct {
	t     *Tenant
	cl    *dsa.Client
	comp  *dsa.Completion
	op    dsa.OpType
	start sim.Time
	ab    *AutoBatcher // non-nil while queued and unflushed

	// d is the submitted descriptor (PASID and flags resolved), kept so
	// fault recovery can re-submit the unfinished remainder. Set only on
	// futures built by Tenant.dispatch — the only futures recovery applies
	// to.
	d dsa.Descriptor

	// sharedWait links futures that resolve from one completion record
	// (coalesced batch siblings): the completion is physically observed —
	// and its wait cost paid — once, by the first waiter, and a batch
	// failure counts once toward Stats.Failures. Interrupt coalescing
	// (Policy.CoalesceCount) extends the same idea across *distinct*
	// completion records: every record announced by one moderated
	// interrupt is harvested by the first waiter's delivery, so sibling
	// futures in the same coalescing window drain for free whichever
	// record each one resolves from.
	sharedWait *batchWait

	// pipe marks a pipeline future, whose run state lives here so it
	// outlives the pipeline's reuse: the pipeline driver process
	// (pipeline.go) walks the DAG's chains on the sim timeline, writes res
	// and err, sets ran and broadcasts sig when the final chain completes.
	// Done and Wait read ran instead of a completion.
	pipe, ran bool
	sig       sim.Signal

	// parts joins the per-socket sub-batches of one split batch
	// submission (batch.go): the Future is done when every part is, and
	// Wait drains the parts in turn, paying the wait cost once per
	// sub-batch — or, under interrupt coalescing, once per moderation
	// window: the tenant's coalescer spans its per-WQ clients, so
	// sub-batch records finishing within one window share one delivery.
	parts []*Future

	done bool
	res  Result
	err  error

	// armed marks a wait ArmWait started, which the next Wait finishes.
	armed bool

	// released marks a Future handed back with Release, so any later use
	// of the handle panics instead of reading another operation's state.
	released bool
}

// live panics on a released Future: its memory may already carry a
// later operation.
func (f *Future) live() {
	if f.released {
		panic("offload: use of a released Future")
	}
}

// Release hands a resolved Future back to its tenant for reuse by a later
// operation, together with the completion record it resolved from (a
// record shared by auto-batched siblings returns with the last of them).
// Resolved means Wait has returned, or the Future was returned already
// resolved. The caller must hold no reference to the Future afterwards:
// every method of a released Future panics, and so does Release of an
// unresolved one.
func (f *Future) Release() {
	f.live()
	if !f.done {
		panic("offload: Release of an unresolved Future")
	}
	f.t.freeFuture(f)
}

// Done reports whether the result is available without waiting. A queued
// auto-batched operation is not done until its batch flushes and finishes.
func (f *Future) Done() bool {
	f.live()
	if f.done {
		return true
	}
	if f.pipe {
		return f.ran
	}
	if f.parts != nil {
		for _, part := range f.parts {
			if !part.Done() {
				return false
			}
		}
		return true
	}
	return f.comp != nil && f.comp.Done()
}

// Wait blocks the calling process until the operation finishes, accounting
// the wait on the tenant's core per mode, and returns the result. Waiting
// on an operation still queued in the AutoBatcher flushes the batch first,
// so a dependent caller can never deadlock on an unflushed batch.
func (f *Future) Wait(p *sim.Proc, mode WaitMode) (Result, error) {
	f.live()
	return f.wait(p, mode, false)
}

// Harvest resolves a Done future without waiting for it: its record was
// written before the caller's current wake-up, so the handler pass that
// woke the caller reads it too, the way rte_dma_completed reaps every
// written record in one call. No delivery is paid and the core is charged
// nothing. Fault recovery runs as under Wait, and a retry's completion is
// waited for in mode. Harvest of a future that is not Done panics.
func (f *Future) Harvest(p *sim.Proc, mode WaitMode) (Result, error) {
	if !f.Done() {
		panic("offload: Harvest of a pending Future")
	}
	return f.wait(p, mode, true)
}

// wait is Wait, and with harvest Harvest: a harvested record is read with
// no wait of its own.
func (f *Future) wait(p *sim.Proc, mode WaitMode, harvest bool) (Result, error) {
	if f.done {
		return f.res, f.err
	}
	if f.pipe {
		// The driver process pays the per-chain wait costs; the caller just
		// parks until the run resolves (event-driven, allocation-free).
		for !f.ran {
			p.Wait(&f.sig)
		}
		f.done = true
		f.res.Duration = p.Now() - f.start
		f.t.recordSLO(f.res.Duration)
		return f.res, f.err
	}
	if f.parts != nil {
		return f.waitParts(p, mode, harvest)
	}
	if f.ab != nil {
		// Flush binds this future to its sub-batch parent, or resolves it
		// when that sub-batch failed to submit; a failure in a *different*
		// sub-batch of the same flush leaves this future submitted and
		// waitable, so only f.done decides.
		f.ab.Flush(p)
		if f.done {
			return f.res, f.err
		}
	}
	if f.armed {
		f.armed = false
		f.cl.EndWait(p, f.comp)
	} else if !harvest && (f.sharedWait == nil || !f.sharedWait.paid || !f.comp.Done()) {
		f.cl.Wait(p, f.comp, mode)
		if f.sharedWait != nil {
			f.sharedWait.paid = true
		}
	}
	// Fault recovery applies only to plain hardware futures: coalesced
	// siblings resolve from a batch parent's record (their fault surfaces
	// as BatchFail), and only the pipeline driver recovers batch parents.
	// A fallback resolves the future directly; a successful retry swaps in
	// the retried completion, which resolve() decodes below.
	if f.sharedWait == nil && f.op != dsa.OpBatch {
		f.t.recover(p, f, mode, unpinned)
		if f.done {
			f.t.recordSLO(f.res.Duration)
			return f.res, f.err
		}
	}
	f.resolve(p.Now() - f.start)
	return f.res, f.err
}

// ArmWait starts the completion wait of a plain pending hardware future
// from a step of p's running chain (sim.Proc.Continue), so a process that
// was parked on something else starts the wait without being resumed for
// it. The chain then resumes the process when the wait ends, and the next
// Wait finishes it: the wait's accounting, fault recovery and the result
// stay on the process, exactly as a plain Wait would run them. It reports
// whether it armed anything; a pipeline, joined, auto-batched, coalesced
// sibling or resolved future is left to Wait.
func (f *Future) ArmWait(p *sim.Proc, mode WaitMode) bool {
	f.live()
	if f.done || f.armed || f.pipe || f.parts != nil || f.ab != nil || f.sharedWait != nil || f.comp == nil {
		return false
	}
	f.armed = f.cl.ArmWait(p, f.comp, mode)
	return f.armed
}

// waitParts resolves a joined (split-batch) future: every sub-batch is
// drained — a later part is not abandoned because an earlier one failed —
// and the first error wins, keeping that part's completion record. On
// success the synthesized record counts completed work descriptors
// (Record.Result), matching what the device reports for an unsplit batch.
// The future is marked done only after the drain, so a concurrent waiter
// (or Done poller) never observes a premature success.
func (f *Future) waitParts(p *sim.Proc, mode WaitMode, harvest bool) (Result, error) {
	res := Result{Hardware: true}
	var firstErr error
	var completed uint64
	for _, part := range f.parts {
		pres, err := part.wait(p, mode, harvest)
		if err != nil {
			if firstErr == nil {
				firstErr = err
				res.Record = pres.Record
			}
			continue
		}
		if part.op == dsa.OpBatch {
			// A sub-batch parent's record counts its succeeded children.
			completed += pres.Record.Result
		} else {
			// A lone-descriptor part completed one work descriptor (its
			// Result field carries op-specific data, not a count).
			completed++
		}
	}
	if firstErr == nil {
		res.Record = dsa.CompletionRecord{Status: dsa.StatusSuccess, Result: completed}
	}
	res.Duration = p.Now() - f.start
	f.done, f.res, f.err = true, res, firstErr
	return f.res, f.err
}

// joinFutures links the sub-batch futures of one split submission into a
// single Future whose start is the first part's submission instant. A
// single part is returned as-is.
func (t *Tenant) joinFutures(parts []*Future) *Future {
	if len(parts) == 1 {
		return parts[0]
	}
	f := t.newFuture()
	f.parts = parts
	if len(parts) > 0 {
		f.start = parts[0].start
	}
	return f
}

// newFuture takes a Future from the tenant's free list, or a fresh one.
func (t *Tenant) newFuture() *Future {
	if n := len(t.futs); n > 0 {
		f := t.futs[n-1]
		t.futs[n-1] = nil
		t.futs = t.futs[:n-1]
		f.released = false
		return f
	}
	return &Future{t: t}
}

// freeFuture returns f to the free list with its parts and the completion
// it owns. It is Release without the checks, for the Futures the service
// drives itself (a pipeline chain, a recovery attempt, a flushed batch
// parent).
func (t *Tenant) freeFuture(f *Future) {
	for _, part := range f.parts {
		t.freeFuture(part)
	}
	switch sw := f.sharedWait; {
	case sw != nil:
		if sw.live--; sw.live == 0 {
			f.comp.Release()
		}
	case f.comp != nil:
		f.comp.Release()
	}
	*f = Future{t: t, sig: f.sig, released: true}
	t.futs = append(t.futs, f)
}

// batchWait is the shared wait/accounting state of coalesced siblings.
type batchWait struct {
	paid        bool // wait cost charged by the first waiter
	failCounted bool // batch failure counted once toward Stats.Failures
	live        int  // siblings not yet released; the last releases the record
}

// resolve decodes the completion record into the memoized result. Every
// resolved completion — success or failure — is scored against the
// tenant's SLO budget: a failed operation did not serve its client within
// budget either.
func (f *Future) resolve(dur sim.Time) {
	f.done = true
	rec := f.comp.Record()
	f.res = decode(f.op, rec)
	f.res.Hardware, f.res.Duration = true, dur
	f.t.recordSLO(dur)
	if f.err = recordError(rec); f.err == nil {
		return
	}
	if sw := f.sharedWait; sw != nil {
		if sw.failCounted {
			return
		}
		sw.failCounted = true
	}
	f.t.stats.Failures++
}

// decode reads an operation's result values out of a successful completion
// record — the device's, or the one the software executor writes the same
// way.
func decode(op dsa.OpType, rec dsa.CompletionRecord) Result {
	res := Result{Record: rec}
	if rec.Status != dsa.StatusSuccess {
		return res
	}
	switch op {
	case dsa.OpCRCGen, dsa.OpCopyCRC:
		res.CRC = uint32(rec.Result)
	case dsa.OpCompare, dsa.OpComparePattern:
		res.Mismatch = rec.Mismatch
		res.Offset = int64(rec.Result)
	case dsa.OpCreateDelta:
		res.Size = int64(rec.Result)
	}
	return res
}

// recordError maps a completion record to the error its operation
// returns: nil on success, and for a fault a sentinel-wrapped error, so
// errors.Is(err, ErrFaulted/ErrDeviceFailed) holds wherever the fault
// surfaces — a Future or a pipeline stage; the device-level cause
// (dsa.ErrWQDisabled, dsa.ErrDeviceOffline, a mem page-fault error) stays
// wrapped alongside.
func recordError(rec dsa.CompletionRecord) error {
	switch rec.Status {
	case dsa.StatusSuccess:
		return nil
	case dsa.StatusRecordFull:
		return fmt.Errorf("offload: delta record overflow")
	case dsa.StatusDIFError:
		return fmt.Errorf("offload: DIF check failed at block %d: %w", rec.Result, rec.Err)
	case dsa.StatusBatchFail:
		return fmt.Errorf("offload: batch completed %d descriptors before failing: %w", rec.Result, rec.Err)
	case dsa.StatusPageFault:
		if rec.Err != nil {
			return fmt.Errorf("offload: page fault at %#x after %d bytes (%w): %w",
				uint64(rec.FaultAddr), rec.BytesCompleted, ErrFaulted, rec.Err)
		}
		return fmt.Errorf("offload: page fault at %#x after %d bytes: %w",
			uint64(rec.FaultAddr), rec.BytesCompleted, ErrFaulted)
	case dsa.StatusWQError, dsa.StatusDeviceOffline:
		if rec.Err != nil {
			return fmt.Errorf("offload: %v (%w): %w", rec.Status, ErrDeviceFailed, rec.Err)
		}
		return fmt.Errorf("offload: %v: %w", rec.Status, ErrDeviceFailed)
	}
	return fmt.Errorf("offload: %v: %w", rec.Status, rec.Err)
}

// completed builds an already-resolved Future (software path and submission
// errors).
func (t *Tenant) completed(res Result, err error) *Future {
	f := t.newFuture()
	f.done, f.res, f.err = true, res, err
	return f
}
