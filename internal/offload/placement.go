// Data-home placement (guideline G4 made policy).
//
// The paper's Fig 6 shows that where the *data* lives — not where the
// submitting core runs — decides offload throughput: a device on the data's
// socket avoids the UPI crossing that roughly halves bandwidth (Fig 6a),
// and DRAM-vs-CXL destination media shift the picture further (Fig 6b).
// The Placement scheduler routes each descriptor to a WQ local to its
// source/destination data; the batch paths (batch.go) shard a mixed-home
// flush into per-socket sub-batches so one logical batch can ride multiple
// devices, each adjacent to its slice's data; a fused pipeline takes its
// whole chain's socket from the same cost model (Placement.route).
package offload

import (
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Placement routes each descriptor to a WQ on its data's socket: the
// socket both ends share when they agree, otherwise the side of the
// faster-write medium (see dataSocket). Requests without placement
// information fall back to NUMALocal semantics (the tenant's socket).
// Within the chosen socket it picks least-loaded; with QoS enabled it
// first applies PriorityAware's express-lane reservation, so data locality
// and the §3.4 F3 express lane compose.
type Placement struct {
	next int
	// qos composes the express/rest partition on top of the socket choice.
	qos bool

	// Detour hysteresis state for the load-aware path. The raw queueing-
	// delay signal (latency EWMA × occupancy) jumps a full completion
	// latency per queued descriptor, so pricing every submission against
	// the instantaneous value lets a workload hovering at the detour
	// threshold ping-pong between sockets, paying the UPI crossing on
	// alternate picks. Two mechanisms make routing flip only on a
	// sustained gap: smoothed holds a per-(socket, pool) EWMA of the
	// queueing delay (costEWMAAlpha), and lastRoute remembers the route
	// last chosen per (home socket, pool kind) — a challenger must
	// undercut the incumbent's smoothed cost by switchMargin before the
	// route moves. The pool-kind key keeps QoS classes from fighting:
	// under express/rest composition an LS and a Bulk request are costed
	// against different pools, so each class holds its own incumbent.
	// Both tables are sized on the first load-aware route and reused,
	// keeping Pick allocation-free.
	smoothed  []float64
	lastRoute []int
}

// Pool-kind indices into the smoothed cost table: each socket tracks the
// whole-socket pool and, under QoS composition, the express and rest
// partitions separately (their backlogs diverge by construction).
const (
	poolLocal = iota
	poolExpress
	poolRest
	poolKinds
)

const (
	// costEWMAAlpha smooths the queueing-delay samples feeding the detour
	// decision: 1/4 per sample reacts within a handful of submissions —
	// fast enough that a genuine backlog still detours inside a burst —
	// while a single spiky sample moves the estimate only a quarter of
	// the way.
	costEWMAAlpha = 0.25
	// switchMargin is the sustained advantage a challenger socket must
	// show before routing flips: its smoothed cost must undercut the
	// incumbent's by 25%. The data home keeps winning ties, and an idle
	// incumbent (cost zero) is never left.
	switchMargin = 0.75
)

// NewPlacement returns the data-home-aware scheduler.
func NewPlacement() *Placement { return &Placement{} }

// NewPlacementQoS returns the data-home-aware scheduler with
// PriorityAware's express-lane reservation layered inside the chosen
// socket: latency-sensitive tenants get the socket's top-priority WQ, bulk
// traffic the rest.
func NewPlacementQoS() *Placement { return &Placement{qos: true} }

// Name implements Scheduler.
func (s *Placement) Name() string {
	if s.qos {
		return "placement-qos"
	}
	return "placement"
}

// Pick implements Scheduler.
func (s *Placement) Pick(req Request, wqs []*dsa.WQ) *dsa.WQ {
	socket, ok := dataSocket(req.SrcNode, req.DstNode)
	if ok {
		socket = s.route(req, socket)
	} else {
		socket = req.Socket
	}
	s.next = (s.next + 1) % len(wqs)
	if s.qos {
		return pickExpress(req, socket, wqs, s.next)
	}
	return leastLoadedOf(req.Topo.Local(socket), s.next)
}

// route is the one socket choice of every submission path: Pick routes
// Futures, batch slices and plane pushes through it, splitByHome groups a
// split flush by it, and a pipeline takes its home from it. It returns
// home unchanged when the request is not load-aware. Otherwise it blends
// the home socket's backlog against remote candidates (the paper's
// §3.3/§5 point that queueing delay on a saturated WQ quickly dwarfs the
// UPI penalty): serving the request from candidate socket c costs the
// smoothed queueing delay of c's pool (latency EWMA × load, queueDelayOf,
// folded through costEWMAAlpha) plus the UPI transfer penalty for every
// data leg homed off c. The home wins ties, so an unloaded system routes
// exactly like data-only placement; a deeply backlogged local device
// loses to an idle remote one exactly when the model says the detour is
// cheaper — and hysteresis (lastRoute + switchMargin) keeps a workload
// hovering at that threshold from ping-ponging between sockets.
func (s *Placement) route(req Request, home int) int {
	if !req.LoadAware {
		return home
	}
	topo := req.Topo
	s.ensure(topo.Sockets())
	if home < 0 || home >= topo.Sockets() {
		return home
	}
	key := home*poolKinds + s.reqKind(req)
	incumbent := s.lastRoute[key]
	if incumbent < 0 || incumbent >= topo.Sockets() || (incumbent != home && !topo.HasLocal(incumbent)) {
		incumbent = home
	}
	incCost := s.socketCost(req, incumbent)
	best, bestCost := incumbent, incCost
	for c := 0; c < topo.Sockets(); c++ {
		if c == incumbent || (c != home && !topo.HasLocal(c)) {
			continue
		}
		cost := s.socketCost(req, c)
		if cost < bestCost || (cost == bestCost && c == home && best != home) {
			best, bestCost = c, cost
		}
	}
	if best != incumbent && float64(bestCost) < switchMargin*float64(incCost) {
		incumbent = best
	}
	s.lastRoute[key] = incumbent
	return incumbent
}

// reqKind resolves the pool kind a request's cost (and its hysteresis
// incumbent) is tracked under: the class partition under QoS composition,
// the whole-socket pool otherwise.
func (s *Placement) reqKind(req Request) int {
	if !s.qos {
		return poolLocal
	}
	if req.Class == LatencySensitive {
		return poolExpress
	}
	return poolRest
}

// ensure sizes the hysteresis state for n sockets (allocating only when
// the topology grows; steady-state picks just index it).
func (s *Placement) ensure(n int) {
	if len(s.lastRoute) >= n*poolKinds {
		return
	}
	lastRoute := make([]int, n*poolKinds)
	copy(lastRoute, s.lastRoute)
	for i := len(s.lastRoute); i < len(lastRoute); i++ {
		lastRoute[i] = -1
	}
	smoothed := make([]float64, n*poolKinds)
	copy(smoothed, s.smoothed)
	s.lastRoute, s.smoothed = lastRoute, smoothed
}

// socketCost prices serving req from a device on the given socket: the
// smoothed queueing delay of the pool the pick would actually use (the
// express or bulk partition under QoS composition) plus the cross-socket
// transfer penalty of each remote data leg. Each call folds the pool's
// instantaneous queueing delay into its EWMA — the signal is event-
// sampled on load-aware picks, like the WQ histories feeding it.
func (s *Placement) socketCost(req Request, socket int) sim.Time {
	topo := req.Topo
	pool := topo.Local(socket)
	kind := poolLocal
	if s.qos {
		if express, rest := topo.Split(socket); len(rest) > 0 {
			if req.Class == LatencySensitive {
				pool, kind = express, poolExpress
			} else {
				pool, kind = rest, poolRest
			}
		}
	}
	return s.smooth(socket, kind, topo.queueDelayOf(pool)) + upiPenalty(req, socket, topo)
}

// smooth folds one raw queueing-delay sample into the (socket, pool) EWMA
// and returns the updated estimate. A zero sample snaps the estimate to
// zero instead of decaying toward it: an empty pool's queueing delay is
// known exactly, not estimated — smoothing exists to filter the noisy
// occupancy spikes a transient burst produces, and letting a stale spike
// linger over an idle pool would detour traffic away from a device with
// nothing queued (exactly the misroute the cost model exists to avoid).
func (s *Placement) smooth(socket, kind int, raw sim.Time) sim.Time {
	i := socket*poolKinds + kind
	if raw == 0 {
		s.smoothed[i] = 0
		return 0
	}
	s.smoothed[i] += costEWMAAlpha * (float64(raw) - s.smoothed[i])
	return sim.Time(s.smoothed[i])
}

// upiPenalty estimates the extra virtual time a device on devSocket pays
// to move req's data compared to a device adjacent to it: each leg homed
// on another socket crosses UPI, adding the hop latency plus the
// serialization slowdown when the shared link is narrower than the leg's
// node pipe (priced from the mem.Node bandwidths — Fig 6a's roughly
// halved cross-socket throughput falls out of the 62-vs-120 GB/s gap).
// A pipeline's request prices its fixed legs; any other request its
// descriptor's source and destination.
func upiPenalty(req Request, devSocket int, topo *Topology) sim.Time {
	if len(req.legs) > 0 {
		var pen sim.Time
		for _, l := range req.legs {
			pen += legPenalty(l.Node, l.Size, devSocket, topo, l.Write)
		}
		return pen
	}
	return legPenalty(req.SrcNode, req.Size, devSocket, topo, false) +
		legPenalty(req.DstNode, req.Size, devSocket, topo, true)
}

// legPenalty prices one remote data leg: zero when the leg is unknown or
// local to the device's socket.
func legPenalty(n *mem.Node, size int64, devSocket int, topo *Topology, write bool) sim.Time {
	if n == nil || n.Socket == devSocket {
		return 0
	}
	pen := topo.upiLat
	bw := n.ReadGBps()
	if write {
		bw = n.WriteGBps()
	}
	if topo.upiGBps > 0 && (bw <= 0 || topo.upiGBps < bw) {
		pen += sim.GBps(size, topo.upiGBps)
		if bw > 0 {
			pen -= sim.GBps(size, bw)
		}
	}
	return pen
}

// PipelineLeg is one externally-placed data leg of a fused pipeline: a
// stage operand whose buffer already exists (the original input, the final
// output), as opposed to the scratch intermediates the pipeline allocates
// on whichever socket wins. Size is the bytes the stage moves over it.
type PipelineLeg struct {
	Node  *mem.Node
	Size  int64
	Write bool
}

// dataSocket resolves the socket a (src, dst) data-home pair places a
// descriptor on:
//
//   - both unknown → no placement (ok false; callers fall back to the
//     tenant's socket, i.e. NUMALocal semantics)
//   - one side known → its socket
//   - both on one socket → that socket
//   - straddling sockets → exactly one UPI crossing is unavoidable, so the
//     device lands next to the faster-write medium: a DRAM↔CXL pair goes
//     adjacent to the DRAM side (Fig 6b, G4 — the CXL link is the
//     bottleneck wherever the device sits, while the wide DRAM pipes lose
//     real bandwidth when capped by UPI), and a same-medium pair goes to
//     the destination's socket, keeping the narrower write pipe local.
func dataSocket(src, dst *mem.Node) (int, bool) {
	switch {
	case src == nil && dst == nil:
		return 0, false
	case src == nil:
		return dst.Socket, true
	case dst == nil:
		return src.Socket, true
	case src.Socket == dst.Socket:
		return src.Socket, true
	case src.WriteGBps() > dst.WriteGBps():
		return src.Socket, true
	default:
		return dst.Socket, true
	}
}
