// QoS-aware scheduling and admission control (§3.4 F3 made policy).
//
// The paper shows that WQ priorities and group read-buffer allocations
// shape tail latency under contention, and that WQ backlog — not device
// count — bounds completion latency (Figs 4/9). Three mechanisms turn those
// findings into service policy:
//
//   - QoSClass marks each tenant LatencySensitive or Bulk.
//   - PriorityAware reserves the highest-priority WQ per socket for
//     latency-sensitive tenants and steers bulk traffic to the rest.
//   - A per-tenant token bucket (Policy.AdmitRate/AdmitBurst) sheds or
//     delays bulk bursts before they occupy shared-WQ slots.
//
// The adaptive offload threshold (Policy.AdaptiveThreshold) closes the
// loop on G2: WQ occupancy and completion-latency history feed back into
// the Auto-path decision, so a saturated device sheds small operations to
// the cores and an idle one accepts them earlier than the static 4 KB
// crossover.
package offload

import (
	"errors"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// QoSClass partitions tenants by service objective.
type QoSClass int

// Tenant QoS classes.
const (
	// Bulk tenants stream throughput-bound work (page migration, cache
	// warmup, packet payloads); they tolerate queueing and are the ones
	// admission control throttles. The zero value, so unmarked tenants
	// never occupy reserved slots.
	Bulk QoSClass = iota
	// LatencySensitive tenants submit foreground operations whose tail
	// latency matters; PriorityAware steers them to the reserved
	// high-priority WQ on their socket.
	LatencySensitive
)

// String returns "bulk" or "latency-sensitive".
func (c QoSClass) String() string {
	if c == LatencySensitive {
		return "latency-sensitive"
	}
	return "bulk"
}

// coalesceParams resolves the tenant's interrupt-moderation knobs for its
// QoS class: Bulk tenants get the policy's full count and window (with the
// default window when unset), LatencySensitive tenants bypass moderation —
// a coalesced foreground completion would trade its tail latency for a
// delivery it can well afford to pay per descriptor — unless the policy
// opts every class in (CoalesceAll). count ≤ 1 means coalescing is off.
func (t *Tenant) coalesceParams() (count int, window sim.Time) {
	pol := &t.policy
	if pol.CoalesceCount <= 1 {
		return 1, 0
	}
	if t.class == LatencySensitive && !pol.CoalesceAll {
		return 1, 0
	}
	window = sim.Time(pol.CoalesceWindow)
	if window <= 0 {
		window = DefaultCoalesceWindow
	}
	if pol.CoalesceAdaptive {
		window = t.adaptiveWindow(window)
	}
	return pol.CoalesceCount, window
}

// adaptiveWindow sizes the moderation window from the tenant's observed
// completion inter-arrival gap: the virtual time a full CoalesceCount of
// completions takes at the current rate, so the window is exactly long
// enough to fill the count trigger and no longer. The estimate is clamped
// between the device's moderation tick (below it the timer cannot resolve
// the window) and the static window (the policy's explicit bound on how
// long a tail may be stranded), and quantized to the tick so gap jitter
// does not produce a stream of near-identical windows.
func (t *Tenant) adaptiveWindow(static sim.Time) sim.Time {
	gap := t.S.met.tenantGap(t.AS.PASID)
	if gap <= 0 {
		return static // no completion history yet: start from the static window
	}
	w := gap * sim.Time(t.policy.CoalesceCount)
	tick := t.S.coalesceTick()
	if tick > 0 {
		w = (w + tick - 1) / tick * tick
		if w < tick {
			w = tick
		}
	}
	if w > static {
		w = static
	}
	return w
}

// ErrAdmission reports a hardware submission shed by the tenant's token
// bucket (Policy.AdmitRate exceeded with the burst exhausted). The
// operation was not submitted; the caller can retry later, fall back to
// the software path, or drop the work.
var ErrAdmission = errors.New("offload: admission control rejected submission")

// PriorityAware reserves the highest-priority WQ per socket for
// latency-sensitive tenants and steers bulk traffic to the remaining WQs,
// least-loaded within each partition. Like NUMALocal it considers only
// same-socket WQs when the socket has a local device, so the QoS split
// never costs a UPI crossing. When a socket's WQs all share one priority
// there is nothing to reserve, and both classes fall back to least-loaded
// over the whole local set.
type PriorityAware struct {
	next int
}

// NewPriorityAware returns the QoS-aware scheduler.
func NewPriorityAware() *PriorityAware { return &PriorityAware{} }

// Name implements Scheduler.
func (s *PriorityAware) Name() string { return "priority-aware" }

// Pick implements Scheduler.
func (s *PriorityAware) Pick(req Request, wqs []*dsa.WQ) *dsa.WQ {
	s.next = (s.next + 1) % len(wqs)
	return pickExpress(req, req.Socket, wqs, s.next)
}

// pickExpress applies the express-lane reservation within a socket's WQ
// pool: latency-sensitive requests get the top-priority subset, bulk the
// rest, least-loaded within each partition. It is shared by PriorityAware
// and the QoS-composed Placement scheduler, which differ only in how the
// socket is chosen.
func pickExpress(req Request, socket int, wqs []*dsa.WQ, offset int) *dsa.WQ {
	express, rest := req.Topo.Split(socket)
	if len(rest) == 0 {
		// Uniform priorities: no WQ can be reserved without starving bulk
		// traffic entirely, so the classes share the pool.
		return leastLoadedOf(req.Topo.Local(socket), offset)
	}
	// A class whose partition is inside a fault window detours, and keeps
	// off the express lanes while it can: a latency-sensitive request
	// takes its socket's bulk WQs, a bulk one the bulk WQs of any socket.
	// Failing that, any live WQ beats a dead queue.
	primary, alt := express, rest
	if req.Class != LatencySensitive {
		primary, alt = rest, req.Topo.allRest
	}
	if wq := leastLoadedHealthy(primary, offset); wq != nil {
		return wq
	}
	if wq := leastLoadedHealthy(alt, offset); wq != nil {
		return wq
	}
	return leastLoadedOf(wqs, offset)
}

// splitByPriority partitions wqs into the top-priority set (the reserved
// "express lane") and the rest. rest is empty when every WQ shares one
// priority.
func splitByPriority(wqs []*dsa.WQ) (express, rest []*dsa.WQ) {
	top := wqs[0].Priority
	for _, wq := range wqs[1:] {
		if wq.Priority > top {
			top = wq.Priority
		}
	}
	for _, wq := range wqs {
		if wq.Priority == top {
			express = append(express, wq)
		} else {
			rest = append(rest, wq)
		}
	}
	return express, rest
}

// tokenBucket is the per-tenant admission-control state. Tokens accrue in
// virtual time at Policy.AdmitRate per second up to Policy.AdmitBurst; one
// hardware submission (work descriptor or batch parent) costs one token.
// The bucket starts full so a tenant's first burst is admitted.
type tokenBucket struct {
	tokens float64
	last   sim.Time
	primed bool
}

// take attempts to consume one token at virtual instant now under the
// given rate (tokens/second) and burst capacity. A non-positive rate
// means admission control is off (always admitted). When the bucket is
// empty it returns false and the virtual duration until one token will
// have accrued.
func (b *tokenBucket) take(now sim.Time, rate float64, burst int) (bool, sim.Time) {
	if rate <= 0 {
		return true, 0
	}
	capacity := float64(burst)
	if capacity < 1 {
		capacity = 1
	}
	if !b.primed {
		b.primed = true
		b.tokens = capacity
	} else {
		b.tokens += rate * (now - b.last).Seconds()
		if b.tokens > capacity {
			b.tokens = capacity
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// +1ns guards the float64 round-down so a delayed retry cannot land
	// one event before the token actually accrues.
	wait := sim.Time((1-b.tokens)/rate*1e9) + 1
	return false, wait
}

// Adaptive-threshold shape (G2 made dynamic). Pressure is the service-wide
// device saturation estimate in [0,1]; the effective threshold is the
// policy's base value scaled by where pressure sits between the idle and
// saturation watermarks.
const (
	// adaptIdle: below this pressure the device is considered idle and the
	// threshold halves — small operations offload earlier than the static
	// crossover because nothing queues ahead of them.
	adaptIdle = 0.10
	// adaptSaturate: above this pressure the threshold starts rising; at
	// pressure 1.0 it reaches adaptMaxScale × base, shedding everything
	// but large transfers to the cores.
	adaptSaturate = 0.60
	// adaptMaxScale bounds the raised threshold (16 × 4 KB = 64 KB at full
	// saturation — roughly where offload still wins even behind a backlog,
	// Fig 2a).
	adaptMaxScale = 16.0
	// adaptIdleScale is the idle-device discount on the base threshold.
	adaptIdleScale = 0.5
	// adaptLatSaturate: a completion-latency EWMA at this multiple of the
	// best (unloaded) observation counts as full saturation, so latency
	// inflation raises the threshold even while occupancy looks moderate
	// (e.g. few deep descriptors rather than many shallow ones).
	adaptLatSaturate = 4.0
)

// Pressure estimates device saturation across the service's WQs in [0,1]:
// the mean smoothed occupancy fraction (taking the instantaneous value
// when higher, so a just-filled queue registers immediately), pushed up by
// completion-latency inflation relative to the best latency the service
// has observed. The latency term counts only WQs that currently hold
// work: the latency EWMA is event-sampled and would otherwise freeze at
// its last (possibly saturated) value when traffic stops, locking the
// adaptive threshold high on an idle device. The result is memoized per
// virtual instant — an operation's path decision reads it more than once.
func (sv *Service) Pressure() float64 {
	if len(sv.wqs) == 0 {
		return 0
	}
	if now := sv.E.Now(); sv.pressureOK && sv.pressureAt == now {
		return sv.pressure
	}
	p := sv.pressureOver(sv.wqs)
	sv.pressure, sv.pressureAt, sv.pressureOK = p, sv.E.Now(), true
	return p
}

// SocketPressure is the per-socket counterpart of Pressure: the same WQ
// occupancy/latency EWMAs rolled up through the precomputed Topology, but
// restricted to the WQs local to the given socket. Under uniform load
// every socket converges to the aggregate Pressure(); under skew the
// estimates diverge — the signal the load-aware placement path and the
// per-socket adaptive threshold act on. A socket with no local device
// reports the aggregate (its submissions fall back to the full WQ set).
func (sv *Service) SocketPressure(socket int) float64 {
	if sv.topo == nil || !sv.topo.HasLocal(socket) {
		return sv.Pressure()
	}
	if now := sv.E.Now(); sv.sockPressureOK[socket] && sv.sockPressureAt[socket] == now {
		return sv.sockPressure[socket]
	}
	p := sv.pressureOver(sv.topo.Local(socket))
	sv.sockPressure[socket], sv.sockPressureAt[socket], sv.sockPressureOK[socket] = p, sv.E.Now(), true
	return p
}

// pressureOver computes the saturation estimate for one WQ pool. The
// latency floor (the unloaded reference) stays service-wide: the best
// completion latency any WQ ever delivered is the fair baseline to
// measure every socket's inflation against.
func (sv *Service) pressureOver(wqs []*dsa.WQ) float64 {
	if len(wqs) == 0 {
		return 0
	}
	var occ float64
	var worst sim.Time
	for _, wq := range wqs {
		o := sv.met.occEWMA(wq)
		if inst := float64(wq.Occupancy()) / float64(wq.Size); inst > o {
			o = inst
		}
		occ += o
		if l := sv.met.latEWMA(wq); l > 0 {
			if sv.latFloor == 0 || l < sv.latFloor {
				sv.latFloor = l
			}
			if wq.Occupancy() > 0 && l > worst {
				worst = l
			}
		}
	}
	p := occ / float64(len(wqs))
	if sv.latFloor > 0 && worst > sv.latFloor {
		lp := (float64(worst)/float64(sv.latFloor) - 1) / (adaptLatSaturate - 1)
		if lp > p {
			p = lp
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

// EffectiveThreshold resolves the tenant's G2 size floor for this instant:
// the static Policy.OffloadThreshold unless AdaptiveThreshold is set, in
// which case device pressure scales it between half (idle) and
// adaptMaxScale× (saturated) the base value. Under a tenant-socket-routed
// scheduler the pressure read is the tenant's socket's (SocketPressure):
// a tenant next to an idle device should not shed small operations
// because the other socket's DSA is drowning. A data-aware scheduler
// routes by each descriptor's home, which this size-only decision cannot
// know, so it keeps the aggregate estimate rather than guessing a socket
// that may not serve the operation.
func (t *Tenant) EffectiveThreshold() int64 {
	base := t.policy.OffloadThreshold
	if !t.policy.AdaptiveThreshold || base <= 0 {
		return base
	}
	p := t.S.Pressure()
	if t.S.place == nil {
		p = t.S.SocketPressure(t.Core.Socket)
	}
	switch {
	case p <= adaptIdle:
		return int64(float64(base) * adaptIdleScale)
	case p >= adaptSaturate:
		scale := 1 + (p-adaptSaturate)/(1-adaptSaturate)*(adaptMaxScale-1)
		return int64(float64(base) * scale)
	default:
		return base
	}
}
