package dsa

import (
	"fmt"

	"dsasim/internal/sim"
)

// WQMode selects dedicated or shared work-queue semantics (§3.2).
type WQMode int

// Work queue modes.
const (
	// Dedicated WQs belong to a single client, submitted to with the
	// posted MOVDIR64B write; software tracks occupancy.
	Dedicated WQMode = iota
	// Shared WQs accept ENQCMD from many clients without locking; the
	// non-posted submission returns whether the descriptor was accepted.
	Shared
)

// String returns "dedicated" or "shared".
func (m WQMode) String() string {
	if m == Shared {
		return "shared"
	}
	return "dedicated"
}

// ErrWQFull reports a submission to a full queue. For shared WQs this is the
// ENQCMD retry status; for dedicated WQs it means the client overran the
// occupancy it is responsible for tracking.
var ErrWQFull = fmt.Errorf("dsa: work queue full")

// work is one queued descriptor with its completion handle. Works are
// pooled per device (Device.newWork / freeWork): nothing outside the
// device holds one, so each returns to the free list once its completion
// record is written.
type work struct {
	d         Descriptor
	comp      *Completion
	own       Completion  // a batch child's completion (comp = &own): children never reach a caller
	wq        *WQ         // accepting WQ (nil for batch sub-descriptors)
	parent    *batchState // non-nil for batch sub-descriptors
	childIdx  int         // position within the parent batch's children
	fromBatch bool
	enqueued  sim.Time

	// Completion state, set by the engine when it schedules fire: the
	// record to write, or, with apply, the resolved spans the operation
	// executes over when the record is written.
	g     *Group
	rec   CompletionRecord
	spans [3]span
	apply bool

	// fireFn is wk.fire bound once when the work is first allocated, so
	// scheduling a completion event allocates no closure; it survives
	// recycling.
	fireFn func()
}

// WQ is one configured work queue.
type WQ struct {
	ID       int
	Dev      *Device
	Mode     WQMode
	Size     int
	Priority int

	group *Group
	q     sim.FIFO[*work]
	// children holds the sub-descriptors of batches this WQ accepted,
	// fetched by the batch processing unit and ready for any engine in
	// the group. They hold no WQ entry.
	children sim.FIFO[*work]
	// occupied counts entries consumed (freed on dispatch to an engine).
	occupied int

	onReady func()      // the ready hook (SetOnReady), or nil
	feed    *SubmitRing // the ring feeding the queue (SetFeed), or nil

	// disabled marks a transient fault-injector disable window.
	disabled bool

	// statistics
	submitted int64
	maxOcc    int
}

// Group returns the group this WQ belongs to.
func (w *WQ) Group() *Group { return w.group }

// Occupancy returns the entries currently held.
func (w *WQ) Occupancy() int { return w.occupied }

// Load returns the backlog a new submission would queue behind: the
// entries held plus those waiting in the ring that feeds the queue
// (SetFeed). Without a feeding ring it equals Occupancy.
func (w *WQ) Load() int {
	if w.feed == nil {
		return w.occupied
	}
	return w.occupied + w.feed.Len()
}

// SetFeed names r (nil to remove) as the submit ring feeding the queue, so
// that Load counts its queued entries.
func (w *WQ) SetFeed(r *SubmitRing) { w.feed = r }

// SetOnReady installs fn (nil to remove) as the queue's ready hook: the
// engine calls it when an entry leaves the queue, by dispatch or by a
// fault failing the queue, and when the queue's health flips either way.
// A submitter that found the queue full or failed waits on it instead of
// polling. fn runs inside engine events and must not block. A queue has
// one hook owner: installing a hook over another fails until the owner
// removes its own.
func (w *WQ) SetOnReady(fn func()) error {
	if fn != nil && w.onReady != nil {
		return fmt.Errorf("dsa: wq %d of %s already has a ready hook", w.ID, w.Dev.Cfg.Name)
	}
	w.onReady = fn
	return nil
}

// ready calls the ready hook, if any.
func (w *WQ) ready() {
	if w.onReady != nil {
		w.onReady()
	}
}

// pending returns the descriptors waiting for an engine on the queue's
// behalf: fetched batch children and queued entries.
func (w *WQ) pending() int { return w.children.Len() + w.q.Len() }

// MaxOccupancy returns the high-water mark of entries held.
func (w *WQ) MaxOccupancy() int { return w.maxOcc }

// Submitted returns the number of descriptors accepted by this WQ.
func (w *WQ) Submitted() int64 { return w.submitted }

// Submit places a descriptor in the WQ at the current virtual instant,
// returning a completion handle, or ErrWQFull when no entry is free. The
// handle comes from the device's free list; the caller may hand it back
// with Completion.Release once done with it. Submit models only the device
// side: the core-side instruction cost (MOVDIR64B / ENQCMD / retry loops)
// lives in Client.
func (w *WQ) Submit(d Descriptor) (*Completion, error) {
	if !w.Dev.enabled {
		return nil, fmt.Errorf("dsa: device %s not enabled", w.Dev.Cfg.Name)
	}
	if w.Dev.offline {
		return nil, fmt.Errorf("dsa: %s: %w", w.Dev.Cfg.Name, ErrDeviceOffline)
	}
	if w.disabled {
		return nil, fmt.Errorf("dsa: wq %d of %s: %w", w.ID, w.Dev.Cfg.Name, ErrWQDisabled)
	}
	if w.Occupancy() >= w.Size {
		w.Dev.stats.Retries++
		return nil, ErrWQFull
	}
	if d.Size > w.Dev.Cfg.MaxTransfer {
		return nil, fmt.Errorf("dsa: transfer size %d exceeds device max %d", d.Size, w.Dev.Cfg.MaxTransfer)
	}
	if d.Op == OpBatch && len(d.Descs) > w.Dev.Cfg.MaxBatch {
		return nil, fmt.Errorf("dsa: batch of %d exceeds device max %d", len(d.Descs), w.Dev.Cfg.MaxBatch)
	}
	if d.Op == OpBatch && len(d.Descs) < 2 {
		return nil, fmt.Errorf("dsa: batch requires at least 2 descriptors")
	}
	comp := w.Dev.newCompletion()
	comp.SubmitTime = w.Dev.E.Now()
	comp.desc = d
	wk := w.Dev.newWork()
	wk.d, wk.comp, wk.wq, wk.enqueued = d, comp, w, w.Dev.E.Now()
	if w.occupied++; w.occupied > w.maxOcc {
		w.maxOcc = w.occupied
	}
	w.noteOcc()
	w.submitted++
	w.Dev.stats.Submitted++
	w.q.Push(wk)
	w.group.armReleases()
	// The descriptor becomes visible to the group arbiter after the portal
	// fabric hop.
	w.Dev.E.After(w.Dev.Cfg.Timing.PortalHop/2, w.group.dispatchFn)
	return comp, nil
}
