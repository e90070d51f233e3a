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
// Recording is shard-local: the device plane (occupancy transitions, WQ
// and socket completion latencies) writes through one shard, and each
// tenant's completion/inter-arrival streams write through the tenant's
// own shard. Views call sync() first, which drains every shard and
// rotates windows up to the current virtual instant — the pull half of
// the record-locally/merge-periodically design. The one exception is the
// placement load view: Completed also folds each WQ's latency EWMA in
// place as the completion happens (latLive), so a placement pick reads
// the current value without a sync — the push half.
type metrics struct {
	e   *sim.Engine
	hub *telemetry.Hub
	dev *telemetry.Shard

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

// wqStreams are one work queue's device-plane streams, plus the live
// latency EWMA the placement load view reads.
type wqStreams struct {
	occ telemetry.ID // occupancy, in per-mille of the WQ size
	lat telemetry.ID // submit→finish completion latency, ns

	// latNow folds every lat sample as Completed records it, in the dev
	// shard's recording order, so it equals the lat digest's EWMA once
	// the shard merges.
	latNow telemetry.EWMA
}

// tenantStreams are one tenant's completion streams, recorded through the
// tenant's own shard.
type tenantStreams struct {
	lat    telemetry.ID // completion latency, ns
	iat    telemetry.ID // completion inter-arrival gap, ns
	shard  *telemetry.Shard
	lastAt sim.Time
	seen   bool
}

func newMetrics(e *sim.Engine) *metrics {
	h := telemetry.NewHub(telemetry.DefaultWindow)
	return &metrics{
		e:          e,
		hub:        h,
		dev:        h.NewShard(),
		wq:         make(map[*dsa.WQ]*wqStreams),
		ten:        make(map[int]*tenantStreams),
		faultID:    h.Stream("service.faults"),
		retryID:    h.Stream("service.retries"),
		fallbackID: h.Stream("service.fallbacks"),
		failoverID: h.Stream("service.failovers"),
	}
}

// Fault-recovery event hooks. All run engine-side (device completion
// events, the plane drain, Future recovery), so the shared dev shard is
// safe to record through.
func (m *metrics) fault()    { m.dev.Record(m.faultID, m.e.Now(), 1) }
func (m *metrics) retry()    { m.dev.Record(m.retryID, m.e.Now(), 1) }
func (m *metrics) fallback() { m.dev.Record(m.fallbackID, m.e.Now(), 1) }
func (m *metrics) failover() { m.dev.Record(m.failoverID, m.e.Now(), 1) }

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

// tenant returns the streams registered for a PASID, creating them (and
// the tenant's shard) on first use.
func (m *metrics) tenant(pasid int) *tenantStreams {
	ts, ok := m.ten[pasid]
	if !ok {
		name := fmt.Sprintf("pasid%d", pasid)
		ts = &tenantStreams{
			lat:   m.hub.Stream(name + ".lat"),
			iat:   m.hub.Stream(name + ".iat"),
			shard: m.hub.NewShard(),
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
	m.dev.Record(s.occ, at, int64(occupied)*1000/int64(size))
}

// Completed implements dsa.Probe.
func (m *metrics) Completed(wq *dsa.WQ, at sim.Time, pasid int, lat sim.Time) {
	s, ok := m.wq[wq]
	if !ok {
		return
	}
	if lat > 0 {
		m.dev.Record(s.lat, at, int64(lat))
		s.latNow.Add(int64(lat))
		m.dev.Record(m.sock[wq.Dev.Cfg.Socket], at, int64(lat))
	}
	if ts := m.ten[pasid]; ts != nil {
		if lat > 0 {
			ts.shard.Record(ts.lat, at, int64(lat))
		}
		if ts.seen {
			ts.shard.Record(ts.iat, at, int64(at-ts.lastAt))
		}
		ts.seen, ts.lastAt = true, at
	}
}

// sync drains the shards and rotates windows up to now. Policy views call
// it before reading; the underlying digests make repeated syncs at one
// instant cheap, so callers need no extra memoization.
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

// latEWMA returns the WQ's smoothed completion latency as of the last
// merge (0 until the first completion).
func (m *metrics) latEWMA(wq *dsa.WQ) sim.Time {
	s, ok := m.wq[wq]
	if !ok {
		return 0
	}
	return sim.Time(m.hub.Digest(s.lat).EWMA())
}

// latLive returns the WQ's smoothed completion latency as of its last
// completion, with no sync: what latEWMA returns once the shards merge.
func (m *metrics) latLive(wq *dsa.WQ) sim.Time {
	s, ok := m.wq[wq]
	if !ok {
		return 0
	}
	return sim.Time(s.latNow.Value())
}

// tenantGap returns the tenant's recent completion inter-arrival gap (the
// live ring's mean; 0 until two completions have been observed) — the
// signal adaptive coalescing sizes its windows from.
func (m *metrics) tenantGap(pasid int) sim.Time {
	ts, ok := m.ten[pasid]
	if !ok {
		return 0
	}
	m.sync()
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
