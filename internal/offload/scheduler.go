package offload

import (
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
)

// Request describes one hardware submission to the scheduler: the
// submitting tenant's socket, its QoS class, the descriptor payload size
// (zero for batch parents), and — when resolvable — the home nodes of the
// descriptor's source and destination data (G4's placement inputs).
// Schedulers are free to ignore any field.
type Request struct {
	Socket int
	Class  QoSClass
	Size   int64

	// SrcNode and DstNode are the home NUMA nodes of the data the
	// descriptor reads and writes (nil when unknown: unplaced buffers, or
	// operations without that side). Data-aware schedulers route on them.
	SrcNode *mem.Node
	DstNode *mem.Node

	// LoadAware lets a data-aware scheduler trade the data's home for a
	// less backlogged socket when its cost model says the UPI detour is
	// cheaper than the queueing delay (Policy.LoadAware; the service
	// fills it from the submitting tenant's policy).
	LoadAware bool

	// legs are a fused pipeline's fixed data legs, priced in place of
	// SrcNode/DstNode when the pipeline picks its home (Placement.route).
	// The slice is the pipeline's reused buffer, so the request stays
	// allocation-free.
	legs []PipelineLeg

	// Topo is the precomputed WQ placement index over the wqs Pick is
	// handed. Required: the service and the submission plane fill it on
	// every submission, and direct Pick callers pass Service.Topology.
	Topo *Topology
}

// Scheduler picks the work queue for one submission. Implementations see
// the full request context and the service's WQ set; they are
// simulation-domain objects (no locking needed).
//
// The built-ins ladder up the paper's placement findings: RoundRobin is
// the blind spreading the old per-thread executor did; NUMALocal honors
// Fig 6a (a same-socket device avoids the UPI crossing that roughly halves
// throughput); LeastLoaded honors Figs 4/9 (WQ backlog, not device count,
// bounds completion latency under asymmetric load); PriorityAware adds the
// §3.4 F3 QoS dimension, reserving the highest-priority WQ per socket for
// latency-sensitive tenants (see qos.go); Placement adds the G4 data
// dimension, routing each descriptor to the device local to the data it
// touches rather than to the submitting core (see placement.go).
type Scheduler interface {
	// Name identifies the policy in reports and experiment tables.
	Name() string
	// Pick returns the submission target for the request. wqs is
	// non-empty; Pick must return one of its elements.
	Pick(req Request, wqs []*dsa.WQ) *dsa.WQ
}

// RoundRobin cycles through every WQ regardless of locality or load — the
// legacy executor behavior, kept as the baseline policy.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns the baseline scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick implements Scheduler.
func (r *RoundRobin) Pick(req Request, wqs []*dsa.WQ) *dsa.WQ {
	n := len(wqs)
	i := r.next % n
	// Wrap instead of growing forever: a long simulation would otherwise
	// overflow the counter (and modulo of a negative index panics).
	r.next = (r.next + 1) % n
	// Skip WQs inside a fault window (two flag reads per probe, no
	// allocation); with everything healthy the pick is the plain rotation.
	for k := 0; k < n; k++ {
		if wq := wqs[(i+k)%n]; wq.Healthy() {
			return wq
		}
	}
	return wqs[i]
}

// NUMALocal prefers WQs whose device sits on the submitting tenant's
// socket, round-robining within that set, and falls back to the full set
// (crossing UPI) only when the socket has no local device.
type NUMALocal struct {
	next map[int]int
}

// NewNUMALocal returns the locality-aware scheduler.
func NewNUMALocal() *NUMALocal { return &NUMALocal{next: make(map[int]int)} }

// Name implements Scheduler.
func (s *NUMALocal) Name() string { return "numa-local" }

// Pick implements Scheduler.
func (s *NUMALocal) Pick(req Request, wqs []*dsa.WQ) *dsa.WQ {
	local := req.Topo.Local(req.Socket)
	n := len(local)
	i := s.next[req.Socket] % n
	s.next[req.Socket] = (i + 1) % n
	for k := 0; k < n; k++ {
		if wq := local[(i+k)%n]; wq.Healthy() {
			return wq
		}
	}
	// The whole local pool is inside a fault window: crossing UPI to a
	// healthy remote WQ beats submitting into a dead queue.
	for k := 0; k < len(wqs); k++ {
		if wq := wqs[(i+k)%len(wqs)]; wq.Healthy() {
			return wq
		}
	}
	return local[i]
}

// LeastLoaded picks the WQ with the least backlog (WQ.Load), breaking
// ties round-robin so equal queues still spread. The backlog counts
// descriptors accepted but not yet dispatched to an engine, plus those
// queued in a plane ring feeding the WQ, so a hogged or slow queue is
// routed around instead of blocking the submitter in the retry loop.
type LeastLoaded struct {
	next int
}

// NewLeastLoaded returns the occupancy-aware scheduler.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Scheduler.
func (s *LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Scheduler.
func (s *LeastLoaded) Pick(req Request, wqs []*dsa.WQ) *dsa.WQ {
	s.next = (s.next + 1) % len(wqs)
	return leastLoadedOf(wqs, s.next)
}

// leastLoadedOf returns the healthy WQ with the least backlog (WQ.Load),
// scanning from the rotating offset so ties spread round-robin. When the
// whole pool is inside a fault window it returns the rotation pick — the
// submission fails fast with the WQ's fault sentinel and recovery (or
// the caller) deals with it. The index wraps by comparison, not by a
// modulo per element — this runs on every submission.
func leastLoadedOf(wqs []*dsa.WQ, offset int) *dsa.WQ {
	if wq := leastLoadedHealthy(wqs, offset); wq != nil {
		return wq
	}
	return wqs[offset%len(wqs)]
}

// leastLoadedHealthy is leastLoadedOf restricted to healthy WQs, returning
// nil when the pool is entirely inside a fault window. Allocation-free:
// the health probe is two flag reads per WQ.
func leastLoadedHealthy(wqs []*dsa.WQ, offset int) *dsa.WQ {
	n := len(wqs)
	i := offset % n
	var best *dsa.WQ
	for k := 0; k < n; k++ {
		if wq := wqs[i]; wq.Healthy() && (best == nil || wq.Load() < best.Load()) {
			best = wq
		}
		if i++; i == n {
			i = 0
		}
	}
	return best
}
