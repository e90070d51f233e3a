package offload

import (
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Topology is the service's precomputed placement index over its work
// queues: per-socket WQ subsets and, within each socket, the express/rest
// priority partition PriorityAware reserves. It is rebuilt on AddWQs (a
// submission plane keeps the one it was built on) and handed to every
// scheduler through Request.Topo, so the submission hot path never
// re-derives or re-allocates these subsets per Pick.
//
// The index also carries the interconnect prices the load-aware cost
// model reads (Placement.route): the UPI hop latency and link rate,
// captured from the memory system at build time. Per-pool load signals
// (queueDelayOf, and Service.SocketPressure above it) roll the live WQ
// load/latency EWMAs up through these subsets.
type Topology struct {
	all []*dsa.WQ
	// Indexed by socket id; a socket with no local device holds nil and
	// falls back to the full set (the UPI-crossing fallback).
	local   [][]*dsa.WQ
	express [][]*dsa.WQ // top-priority subset per socket
	rest    [][]*dsa.WQ // remaining WQs per socket (nil when uniform)
	// Full-set partition, used when a socket has no local device.
	allExpress []*dsa.WQ
	allRest    []*dsa.WQ

	// upiLat and upiGBps price a cross-socket detour for the load-aware
	// placement path: the added hop latency and the shared link's
	// serialization rate (zero when the system models no UPI pipe).
	upiLat  sim.Time
	upiGBps float64

	// met is the service's telemetry plane the queueing-delay model reads
	// its smoothed completion latencies from (set by Service.AddWQs).
	met *metrics
}

// newTopology indexes wqs by device socket over the system's sockets;
// devices on sockets beyond the platform count extend the index.
func newTopology(wqs []*dsa.WQ, sys *mem.System) *Topology {
	sockets := 0
	var upiLat sim.Time
	var upiGBps float64
	if sys != nil {
		sockets = len(sys.Sockets)
		upiLat = sys.UPILat
		upiGBps = sys.UPIGBps()
	}
	for _, wq := range wqs {
		if s := wq.Dev.Cfg.Socket + 1; s > sockets {
			sockets = s
		}
	}
	t := &Topology{
		all:     wqs,
		local:   make([][]*dsa.WQ, sockets),
		express: make([][]*dsa.WQ, sockets),
		rest:    make([][]*dsa.WQ, sockets),
		upiLat:  upiLat,
		upiGBps: upiGBps,
	}
	for _, wq := range wqs {
		s := wq.Dev.Cfg.Socket
		t.local[s] = append(t.local[s], wq)
	}
	for s, pool := range t.local {
		if len(pool) == 0 {
			continue
		}
		t.express[s], t.rest[s] = splitByPriority(pool)
	}
	t.allExpress, t.allRest = splitByPriority(wqs)
	return t
}

// Sockets returns the number of sockets the index covers.
func (t *Topology) Sockets() int { return len(t.local) }

// Local returns the WQs on the given socket, or the full set when the
// socket has no local device (or is out of range) — never empty.
func (t *Topology) Local(socket int) []*dsa.WQ {
	if socket < 0 || socket >= len(t.local) || len(t.local[socket]) == 0 {
		return t.all
	}
	return t.local[socket]
}

// HasLocal reports whether the socket has at least one local WQ (Local
// would not fall back to the full set).
func (t *Topology) HasLocal(socket int) bool {
	return socket >= 0 && socket < len(t.local) && len(t.local[socket]) > 0
}

// Split returns the socket's express-lane WQs and the rest. rest is nil
// when the socket's WQs share one priority (nothing to reserve); both fall
// back to the full-set partition when the socket has no local device.
func (t *Topology) Split(socket int) (express, rest []*dsa.WQ) {
	if socket < 0 || socket >= len(t.local) || len(t.local[socket]) == 0 {
		return t.allExpress, t.allRest
	}
	return t.express[socket], t.rest[socket]
}

// queueDelayOf estimates the queueing delay of the best WQ in pool: its
// load (WQ.Load: descriptors accepted but not yet completed ahead of a new
// arrival, plus the entries waiting in a plane ring that feeds the WQ)
// times the smoothed per-descriptor completion latency, which the
// telemetry plane records at each completion (metrics.latEWMA), so a pick
// syncs nothing. A WQ with no latency history yet estimates zero — the
// model needs at least one completion before a backlog is priced, which
// the streams deliver within the first handful of descriptors.
func (t *Topology) queueDelayOf(pool []*dsa.WQ) sim.Time {
	var best sim.Time
	for i, wq := range pool {
		var est sim.Time
		if t.met != nil {
			est = t.met.latEWMA(wq) * sim.Time(wq.Load())
		}
		if i == 0 || est < best {
			best = est
		}
	}
	return best
}
