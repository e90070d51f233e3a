package offload

import (
	"fmt"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
	"dsasim/internal/telemetry"
)

// metrics is the service's telemetry plane: the dsa.Probe that feeds raw
// device events into one telemetry.Hub, and the typed views every adaptive
// policy reads back out. It replaces the per-WQ occupancy/latency EWMAs
// that used to live inside internal/dsa — the device now only reports
// events, and all smoothing, windowing, and drift detection happen here,
// keyed per WQ, per socket, and per tenant.
//
// The service runs on the simulation's one goroutine, so every event is
// recorded straight into its stream's digest (Hub.Record) as it happens:
// placement, QoS pressure and adaptive coalescing read current digests
// with no merge step. Only the drift readers sync the hub first, to close
// the windows that ended since each stream's last sample.
type metrics struct {
	e   *sim.Engine
	hub *telemetry.Hub

	wq   map[*dsa.WQ]*wqStreams
	sock []telemetry.ID // per-socket completion-latency streams
	ten  map[int]*tenantStreams

	// Service-wide fault-recovery event streams (one count per event, so
	// the digests' windowed rates are faults/retries/fallbacks/failovers
	// per second): the observability half of the failure plane.
	faultID    telemetry.ID
	retryID    telemetry.ID
	fallbackID telemetry.ID
	failoverID telemetry.ID
}

// wqStreams are one work queue's device-plane streams.
type wqStreams struct {
	occ telemetry.ID // occupancy, in per-mille of the WQ size
	lat telemetry.ID // submit→finish completion latency, ns
}

// tenantStreams are one tenant's completion streams.
type tenantStreams struct {
	lat    telemetry.ID // completion latency, ns
	iat    telemetry.ID // completion inter-arrival gap, ns
	lastAt sim.Time
	seen   bool
}

func newMetrics(e *sim.Engine) *metrics {
	h := telemetry.NewHub(telemetry.DefaultWindow)
	return &metrics{
		e:          e,
		hub:        h,
		wq:         make(map[*dsa.WQ]*wqStreams),
		ten:        make(map[int]*tenantStreams),
		faultID:    h.Stream("service.faults"),
		retryID:    h.Stream("service.retries"),
		fallbackID: h.Stream("service.fallbacks"),
		failoverID: h.Stream("service.failovers"),
	}
}

// Fault-recovery event hooks, run from device completion events, the
// plane drain and Future recovery.
func (m *metrics) fault()    { m.hub.Record(m.faultID, m.e.Now(), 1) }
func (m *metrics) retry()    { m.hub.Record(m.retryID, m.e.Now(), 1) }
func (m *metrics) fallback() { m.hub.Record(m.fallbackID, m.e.Now(), 1) }
func (m *metrics) failover() { m.hub.Record(m.failoverID, m.e.Now(), 1) }

// observe registers streams for newly added WQs (and their sockets) and
// installs the probe on their devices. Idempotent per WQ, so hot-plugged
// additions extend the plane without disturbing existing streams.
func (m *metrics) observe(wqs []*dsa.WQ) {
	for _, wq := range wqs {
		if _, ok := m.wq[wq]; ok {
			continue
		}
		sock := wq.Dev.Cfg.Socket
		for len(m.sock) <= sock {
			m.sock = append(m.sock, m.hub.Stream(fmt.Sprintf("socket%d.lat", len(m.sock))))
		}
		name := fmt.Sprintf("%s.wq%d", wq.Dev.Cfg.Name, wq.ID)
		m.wq[wq] = &wqStreams{
			occ: m.hub.Stream(name + ".occ"),
			lat: m.hub.Stream(name + ".lat"),
		}
		wq.Dev.SetProbe(m)
	}
}

// tenant returns the streams registered for a PASID, creating them on
// first use.
func (m *metrics) tenant(pasid int) *tenantStreams {
	ts, ok := m.ten[pasid]
	if !ok {
		name := fmt.Sprintf("pasid%d", pasid)
		ts = &tenantStreams{
			lat: m.hub.Stream(name + ".lat"),
			iat: m.hub.Stream(name + ".iat"),
		}
		m.ten[pasid] = ts
	}
	return ts
}

// WQOccupancy implements dsa.Probe.
func (m *metrics) WQOccupancy(wq *dsa.WQ, at sim.Time, occupied, size int) {
	s, ok := m.wq[wq]
	if !ok {
		return
	}
	m.hub.Record(s.occ, at, int64(occupied)*1000/int64(size))
}

// Completed implements dsa.Probe.
func (m *metrics) Completed(wq *dsa.WQ, at sim.Time, pasid int, lat sim.Time) {
	s, ok := m.wq[wq]
	if !ok {
		return
	}
	if lat > 0 {
		m.hub.Record(s.lat, at, int64(lat))
		m.hub.Record(m.sock[wq.Dev.Cfg.Socket], at, int64(lat))
	}
	if ts := m.ten[pasid]; ts != nil {
		if lat > 0 {
			m.hub.Record(ts.lat, at, int64(lat))
		}
		if ts.seen {
			m.hub.Record(ts.iat, at, int64(at-ts.lastAt))
		}
		ts.seen, ts.lastAt = true, at
	}
}

// sync rotates every digest's windows up to now, closing the ones that
// ended since each stream's last sample. Only the drift views need it:
// the drift detector runs as windows close.
func (m *metrics) sync() { m.hub.Sync(m.e.Now()) }

// occEWMA returns the WQ's smoothed occupancy fraction in [0,1] — the
// same 1/8-per-event signal the device-local history used to expose.
func (m *metrics) occEWMA(wq *dsa.WQ) float64 {
	s, ok := m.wq[wq]
	if !ok {
		return 0
	}
	return m.hub.Digest(s.occ).EWMA() / 1000
}

// latEWMA returns the WQ's smoothed completion latency as of its last
// completion (0 until the first).
func (m *metrics) latEWMA(wq *dsa.WQ) sim.Time {
	s, ok := m.wq[wq]
	if !ok {
		return 0
	}
	return sim.Time(m.hub.Digest(s.lat).EWMA())
}

// tenantGap returns the tenant's recent completion inter-arrival gap (the
// live ring's mean; 0 until two completions have been observed) — the
// signal adaptive coalescing sizes its windows from.
func (m *metrics) tenantGap(pasid int) sim.Time {
	ts, ok := m.ten[pasid]
	if !ok {
		return 0
	}
	return sim.Time(m.hub.Digest(ts.iat).RecentMean(m.e.Now()))
}

// tenantDrifts returns the regime shifts flagged on one tenant's
// completion streams.
func (m *metrics) tenantDrifts(pasid int) int64 {
	ts, ok := m.ten[pasid]
	if !ok {
		return 0
	}
	m.sync()
	return m.hub.Digest(ts.lat).Drifts() + m.hub.Digest(ts.iat).Drifts()
}

// drifts totals the regime shifts flagged across the per-socket latency
// streams and every tenant's completion streams.
func (m *metrics) drifts() int64 {
	m.sync()
	var n int64
	for _, id := range m.sock {
		n += m.hub.Digest(id).Drifts()
	}
	for _, ts := range m.ten {
		n += m.hub.Digest(ts.lat).Drifts()
		n += m.hub.Digest(ts.iat).Drifts()
	}
	return n
}
