package dsa

import "dsasim/internal/sim"

// Probe receives the device's raw queue and completion events. It is the
// feed of the streaming-telemetry subsystem: the device reports what
// happened (occupancy transitions, completion latencies) and keeps no
// smoothed history of its own — windowing, EWMAs, and quantiles live in
// the consumer. A nil probe (the default) makes every hook a single
// branch, so unobserved devices pay nothing.
//
// Probe implementations must not call back into the device synchronously;
// hooks fire inside Submit and completion events.
type Probe interface {
	// WQOccupancy reports a queue's occupancy after an accept or dispatch
	// transition.
	WQOccupancy(wq *WQ, at sim.Time, occupied, size int)
	// Completed reports one finished descriptor (batch parents included,
	// batch children excluded — they carry no WQ) with its submit→finish
	// latency and the submitting PASID.
	Completed(wq *WQ, at sim.Time, pasid int, lat sim.Time)
}

// SetProbe installs the device's event probe (nil to detach). Installed
// once at service construction, before traffic.
func (d *Device) SetProbe(p Probe) { d.probe = p }

// noteOcc reports an occupancy transition to the probe, if any.
func (w *WQ) noteOcc() {
	if p := w.Dev.probe; p != nil {
		p.WQOccupancy(w, w.Dev.E.Now(), w.Occupancy(), w.Size)
	}
}

// noteCompleted reports a completed descriptor to the probe, if any.
func (w *WQ) noteCompleted(pasid int, lat sim.Time) {
	if p := w.Dev.probe; p != nil {
		p.Completed(w, w.Dev.E.Now(), pasid, lat)
	}
}
