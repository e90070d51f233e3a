package dsa

import (
	"errors"
	"fmt"
	"math"

	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Fault sentinels. WQ.Submit returns them (wrapped) when the front end is
// down, so submission planes can tell "retry this queue later" (ErrWQFull)
// from "this queue is dead, fail over" without string matching.
var (
	// ErrWQDisabled reports a submission to a work queue inside a
	// transient disable window.
	ErrWQDisabled = errors.New("dsa: work queue disabled")
	// ErrDeviceOffline reports a submission to a device inside an outage
	// window.
	ErrDeviceOffline = errors.New("dsa: device offline")
)

// FaultBurst elevates the injector's per-page fault probability inside a
// window (a chaos phase: think a cold-page storm after a container migration).
type FaultBurst struct {
	At    sim.Time
	Dur   sim.Time
	Per4K float64 // added to the baseline per-4KB-page probability
}

// WQDisable is one transient work-queue disable window: at At the queue
// stops accepting submissions and every queued-but-undispatched descriptor
// completes with StatusWQError; at At+Dur the queue accepts again.
type WQDisable struct {
	WQ  int // index into Device.WQs()
	At  sim.Time
	Dur sim.Time
}

// Outage is one whole-device offline window: submissions fail with
// ErrDeviceOffline, queued descriptors complete with StatusDeviceOffline,
// and work already dispatched to engines (or fetched into a batch) drains.
type Outage struct {
	At  sim.Time
	Dur sim.Time
}

// FaultConfig parameterizes a device's FaultInjector. All randomness comes
// from one seeded stream consumed in engine-event order, so a given seed
// reproduces the exact fault schedule run after run.
type FaultConfig struct {
	Seed uint64
	// PageFaultPer4K is the baseline probability that any one 4KB page a
	// descriptor touches is unmapped on arrival. A descriptor's fault
	// probability therefore grows with its size: 1-(1-p)^pages.
	PageFaultPer4K float64
	// OpWeight scales the per-page probability per op type (default 1.0);
	// e.g. weight OpCompare at 0 to keep verification paths clean.
	OpWeight map[OpType]float64
	// Bursts are windows of elevated per-page probability.
	Bursts []FaultBurst
	// WQDisables are transient per-queue disable windows.
	WQDisables []WQDisable
	// Outages are whole-device offline windows.
	Outages []Outage
}

// FaultInjector deterministically injects faults into one device: synthetic
// page faults at execute time (resolved like real ones — block-on-fault
// stalls the engine for the OS round trip, otherwise the device writes a
// partial completion after Timing.FaultReport), plus scheduled WQ disable
// windows and device outages. Attach with Device.InjectFaults.
type FaultInjector struct {
	dev *Device
	cfg FaultConfig
	rng *sim.Rand
}

// InjectFaults arms a fault injector on the device and schedules its WQ
// disable windows and outages. Call after Enable, before traffic.
func (d *Device) InjectFaults(cfg FaultConfig) (*FaultInjector, error) {
	if !d.enabled {
		return nil, fmt.Errorf("dsa: %s not enabled", d.Cfg.Name)
	}
	if d.faults != nil {
		return nil, fmt.Errorf("dsa: %s already has a fault injector", d.Cfg.Name)
	}
	inj := &FaultInjector{dev: d, cfg: cfg, rng: sim.NewRand(cfg.Seed | 1)}
	d.faults = inj
	for _, w := range cfg.WQDisables {
		if w.WQ < 0 || w.WQ >= len(d.wqs) {
			return nil, fmt.Errorf("dsa: fault config disables WQ %d of %d", w.WQ, len(d.wqs))
		}
		wq, dur := d.wqs[w.WQ], w.Dur
		d.E.At(w.At, func() {
			wq.disabled = true
			d.stats.WQDisables++
			wq.failQueued(StatusWQError, ErrWQDisabled)
		})
		d.E.At(w.At+dur, func() {
			wq.disabled = false
			wq.ready()
		})
	}
	for _, o := range cfg.Outages {
		dur := o.Dur
		d.E.At(o.At, func() {
			d.offline = true
			d.stats.Outages++
			for _, wq := range d.wqs {
				wq.failQueued(StatusDeviceOffline, ErrDeviceOffline)
			}
		})
		d.E.At(o.At+dur, func() {
			d.offline = false
			for _, wq := range d.wqs {
				wq.ready()
			}
		})
	}
	return inj, nil
}

// Faults returns the device's fault injector, or nil.
func (d *Device) Faults() *FaultInjector { return d.faults }

// per4KAt returns the per-page probability in effect at instant now.
func (inj *FaultInjector) per4KAt(now sim.Time) float64 {
	p := inj.cfg.PageFaultPer4K
	for _, b := range inj.cfg.Bursts {
		if now >= b.At && now < b.At+b.Dur {
			p += b.Per4K
		}
	}
	return p
}

// roll decides whether this descriptor execution takes a synthetic page
// fault and, if so, at which offset. One probability draw per execution
// (plus one for the faulting page), consumed in engine-event order.
func (inj *FaultInjector) roll(d *Descriptor, now sim.Time) (off int64, ok bool) {
	if d.Size <= 0 {
		return 0, false
	}
	p := inj.per4KAt(now)
	if w, found := inj.cfg.OpWeight[d.Op]; found {
		p *= w
	}
	if p <= 0 {
		return 0, false
	}
	pages := (d.Size + mem.Page4K - 1) / mem.Page4K
	pOp := 1 - math.Pow(1-math.Min(p, 1), float64(pages))
	if inj.rng.Float64() >= pOp {
		return 0, false
	}
	off = inj.rng.Int63n(pages) * mem.Page4K
	if off >= d.Size {
		off = 0
	}
	return off, true
}

// Healthy reports whether the WQ front end accepts submissions right now:
// the device is enabled and neither a WQ disable window nor a device
// outage is in effect. Plane lanes and scheduler Picks route on it; only
// fault events flip the flags.
func (w *WQ) Healthy() bool {
	return w.Dev.enabled && !w.disabled && !w.Dev.offline
}

// Offline reports whether the device is inside an outage window.
func (d *Device) Offline() bool { return d.offline }

// failQueued completes every queued-but-undispatched descriptor with the
// given terminal status and returns its work to the free list. Dispatched
// work (on engines, or fetched into a batch) is unaffected and drains
// normally: batch children never sit in a WQ entry, only in the WQ's
// children FIFO, which nextWork keeps serving while the queue is down.
// It runs where the queue fails, so its one call of the ready hook also
// reports that flip.
func (w *WQ) failQueued(status Status, err error) {
	for {
		wk, ok := w.q.Pop()
		if !ok {
			w.ready()
			return
		}
		w.occupied--
		w.noteOcc()
		comp := wk.comp
		comp.complete(CompletionRecord{Status: status, Err: err})
		w.noteCompleted(wk.d.PASID, comp.Latency())
		releaseHooked(comp)
		w.Dev.freeWork(wk)
	}
}
