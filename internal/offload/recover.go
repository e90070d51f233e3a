// Fault recovery: the software half of the failure plane. The device
// model reports faults through CompletionRecord.Status (page-fault
// partials, WQ disable windows, whole-device outages — internal/dsa's
// fault injector); this file decides what the service does about them.
//
// One decision serves every submission path. After each hardware
// completion, Tenant.faulted counts a recoverable fault and says whether
// the operation may finish on the submitting core (Policy.FallbackAfter)
// or be re-submitted (Policy.RetryMax). Every path re-submits
// immediately. The Future path and the pipeline driver run the loop in
// Tenant.recover: a lone descriptor continues from
// CompletionRecord.BytesCompleted (remainderOf), a pipeline's fenced chain
// re-runs whole. The sharded plane re-queues remainders through its rings
// (plane.go), with the attempt count carried in the ring tag.
package offload

import (
	"errors"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// ErrFaulted is wrapped by results whose hardware execution faulted
// (StatusPageFault) and was not recovered within the retry budget. The
// record's BytesCompleted and FaultAddr say how far the device got.
var ErrFaulted = errors.New("offload: operation faulted")

// ErrDeviceFailed is wrapped by results whose accepting queue or device
// died with the descriptor still queued (StatusWQError /
// StatusDeviceOffline) and recovery did not re-land the work in time.
var ErrDeviceFailed = errors.New("offload: device failed")

// recoverable reports whether a completion record is a fault recovery may
// retry — a page fault, WQ error or device outage, on the record itself or,
// for a batch parent, on its first failed child (the fence poisoned the
// rest) — as opposed to a semantic failure (DIF mismatch, delta overflow)
// that would fail identically on any queue.
func recoverable(rec *dsa.CompletionRecord) bool {
	s := rec.Status
	if k := firstFailedChild(rec); k >= 0 {
		s = rec.Children[k].Status
	}
	switch s {
	case dsa.StatusPageFault, dsa.StatusWQError, dsa.StatusDeviceOffline:
		return true
	}
	return false
}

// firstFailedChild returns the index of the first child record that
// completed with a failure status, or -1 (success, a non-batch record,
// or only poisoned StatusNone children — the latter cannot happen: a
// poisoned batch has a failed child before the fence).
func firstFailedChild(rec *dsa.CompletionRecord) int {
	for k := range rec.Children {
		if s := rec.Children[k].Status; s != dsa.StatusSuccess && s != dsa.StatusNone {
			return k
		}
	}
	return -1
}

// faulted is the one retry decision, consulted after a hardware
// completion by the Future, pipeline and plane paths alike. For a
// recoverable fault it counts Stats.Faults and reports whether the
// operation, on its attempt-th faulted hardware attempt, may finish on the
// core (fallback) and whether it may be re-submitted (retry). Both false
// means no fault, or a terminal one. RetryMax 0 disables recovery — the
// first fault is terminal — but the fault still counts.
func (t *Tenant) faulted(rec *dsa.CompletionRecord, attempt int) (fallback, retry bool) {
	if !recoverable(rec) {
		return false, false
	}
	t.stats.Faults++
	t.S.met.fault()
	pol := &t.policy
	if pol.RetryMax <= 0 {
		return false, false
	}
	return pol.FallbackAfter > 0 && attempt >= pol.FallbackAfter, attempt <= pol.RetryMax
}

// retried counts one recovery re-submission.
func (t *Tenant) retried() {
	t.stats.Retries++
	t.S.met.retry()
}

// remainderOf returns the descriptor to re-submit after a faulted
// attempt. Byte-prefix operations (copy, fill, dualcast) continue from
// CompletionRecord.BytesCompleted — the partially completed prefix is
// already in place, so only the tail is re-run. Everything else re-runs
// whole: result-producing ops (CRC, compare, delta) accumulate state the
// record does not carry forward, a batch parent re-runs its chain, and a
// queued-but-never-started fault (WQ error, outage) completed nothing
// anyway. The injector faults on page boundaries, so a continued fill
// never splits its 8-byte pattern.
func remainderOf(d dsa.Descriptor, rec dsa.CompletionRecord) dsa.Descriptor {
	done := rec.BytesCompleted
	if done <= 0 || done >= d.Size {
		return d
	}
	switch d.Op {
	case dsa.OpMemmove:
		d.Src += mem.Addr(done)
		d.Dst += mem.Addr(done)
	case dsa.OpFill:
		d.Dst += mem.Addr(done)
	case dsa.OpDualcast:
		d.Src += mem.Addr(done)
		d.Dst += mem.Addr(done)
		d.Dst2 += mem.Addr(done)
	default:
		return d
	}
	d.Size -= done
	return d
}

// recover is the recovery loop for one hardware future whose completion
// record has landed, run before the record is decoded — by Future.Wait
// for plain futures and by the pipeline driver for its chains. While
// faulted allows, it re-submits the remainder (through the scheduler,
// which routes around unhealthy WQs, or on socket pin) and waits again; a
// fallback resolves the future directly. It counts no failure: the caller
// owns the operation and decides how it ended.
func (t *Tenant) recover(p *sim.Proc, f *Future, mode WaitMode, pin int) {
	for attempt := 1; ; attempt++ {
		rec := f.comp.Record()
		fallback, retry := t.faulted(&rec, attempt)
		if fallback && t.fallback(p, f, remainderOf(f.d, rec)) {
			return
		}
		if !retry {
			return // no fault, or the budget is spent: the record stands
		}
		nf, err := t.dispatch(p, remainderOf(f.d, rec), 0, pin)
		if err != nil {
			return // resubmission refused: the faulted record stands
		}
		t.retried()
		// The faulted attempt's record is spent; the Future takes over the
		// re-submission's completion, and its own handle is returned.
		f.comp.Release()
		f.cl, f.comp, f.d = nf.cl, nf.comp, nf.d
		nf.comp = nil
		t.freeFuture(nf)
		f.cl.Wait(p, f.comp, mode)
	}
}

// fallback finishes the remainder of a faulted operation on the
// submitting core through the software executor, resolving the future as
// a successful software completion whose Duration spans the whole
// operation — faulted hardware attempts included. Returns false when the
// core refuses (no software equivalent, such as a batch parent, or an
// operand it cannot reach); the hardware fault then stands.
func (t *Tenant) fallback(p *sim.Proc, f *Future, rem dsa.Descriptor) bool {
	res, err := t.execSW(p, &rem, f.start)
	if err != nil {
		return false
	}
	t.stats.Fallbacks++
	t.S.met.fallback()
	f.done, f.res, f.err = true, res, nil
	return true
}
