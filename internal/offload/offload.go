// Package offload is the unified submission surface for accelerator work:
// a Service that owns device/WQ selection behind a pluggable Scheduler, and
// per-PASID Tenants that submit operations and receive Futures.
//
// The package encodes the paper's software guidelines as policy rather than
// code: G1 (batch small transfers) lives in the AutoBatcher, G2 (offload
// asynchronously; below ~4 KB prefer the core) in Policy.OffloadThreshold —
// made dynamic by Policy.AdaptiveThreshold, which feeds WQ occupancy and
// completion-latency history back into the Auto-path decision — and the
// placement findings of Figs 5–11 in the NUMALocal and LeastLoaded
// schedulers. The §3.4 F3 QoS findings live in qos.go: tenants carry a
// QoSClass, the PriorityAware scheduler reserves the highest-priority WQ
// per socket for latency-sensitive tenants, and per-tenant token buckets
// (Policy.AdmitRate) keep bulk bursts from starving shared-WQ slots. Every
// operation returns a *Future whose Wait(p, mode) unifies the sync, async,
// poll, UMWAIT, and interrupt completion paths.
//
// # Completion path (§4.4)
//
// Interrupt-mode completions are moderated per tenant and QoS class
// (Policy.CoalesceCount / CoalesceWindow): each tenant owns one
// dsa.Coalescer shared by its per-WQ clients, so up to CoalesceCount
// finished records — across WQs, devices, and split-batch sub-batches —
// are announced by one interrupt, and the first waiter's single delivery
// harvests every record in the window. Bulk tenants coalesce with the
// full window; latency-sensitive tenants bypass moderation (their
// interrupts fire per descriptor, composing with the express-lane
// reservation so the foreground pays neither queueing nor moderation
// delay). The resolved Future.Wait fast path and the poll wait loop are
// allocation-free (see TestResolvedWaitZeroAllocs and the sim package's
// event-path alloc assertions).
//
// # Placement (G4)
//
// Guideline G4 — put the device next to the data, not the submitter —
// lives in placement.go: the Placement scheduler resolves each
// descriptor's source/destination home nodes (mem.AddressSpace.NodeAt, an
// allocation-free lookup the service fills into every Request) and routes
// to a WQ on the data's socket, preferring the faster-write medium when a
// DRAM↔CXL pair straddles sockets and falling back to NUMALocal semantics
// when the data's home is unknown. Under a data-aware scheduler the batch
// paths go further: Batch.Submit and AutoBatcher.Flush shard a mixed-home
// flush into per-socket sub-batches, each submitted to the device local to
// its slice's data, with the sibling Futures joined so the wait cost is
// paid once per sub-batch and failures stay sub-batch-granular
// (Policy.SplitBatches; fenced batches are never split). Scheduler Pick
// paths are allocation-free: per-socket WQ subsets and express/rest
// priority partitions are precomputed on the Service (Topology) instead of
// being re-derived per submission.
//
// Placement is load-aware on request (Policy.LoadAware): the WQ
// load/latency EWMAs roll up per pool through the Topology, and one cost
// model (Placement.route) blends the data-home socket's queueing delay
// against remote candidates' plus the UPI transfer penalty, detouring to
// an idle remote device exactly when the paper's §3.3/§5
// queueing-vs-crossing trade favors it. Pick routes Futures, batch slices
// and plane pushes through it, and a fused pipeline its home socket.
//
//	svc, _ := offload.NewService(e, sys, wqs, offload.WithScheduler(offload.NewNUMALocal()))
//	tn, _ := svc.NewTenant(offload.OnSocket(0))
//	fut, _ := tn.Copy(p, dst, src, 1<<20)
//	res, _ := fut.Wait(p, offload.Poll)
package offload

import (
	"fmt"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
	"dsasim/internal/telemetry"
)

// Service is the shared offload front end: one per platform (or per test
// rig), serving many tenants over a common set of work queues. Submission
// targets are chosen by the Scheduler; per-tenant behavior (thresholds,
// batching, wait modes) comes from Policy.
type Service struct {
	E   *sim.Engine
	Sys *mem.System

	sched  Scheduler
	policy Policy
	model  cpu.Model
	wqs    []*dsa.WQ

	// topo is the precomputed per-socket WQ placement index shared with
	// schedulers via Request.Topo (rebuilt on AddWQs), so Pick never
	// re-derives socket subsets on the submission hot path.
	topo *Topology

	// met is the telemetry plane: the dsa.Probe feeding device events into
	// the streaming digests, and the views Pressure, the placement cost
	// model, and adaptive coalescing read (metrics.go).
	met *metrics

	// place is sched when it routes on data homes (nil otherwise), so the
	// submission hot path only pays the per-descriptor NodeAt lookups
	// (and the batch paths only consider splitting, and a pipeline only
	// prices its legs) when a scheduler will actually read them.
	place *Placement

	// maxBatch caches the smallest device batch limit among the WQs (an
	// AutoBatcher flush bound); recomputed on AddWQs.
	maxBatch int

	// latFloor is the best (smallest) per-WQ completion-latency EWMA the
	// service has observed — the unloaded-device reference that Pressure
	// measures latency inflation against. pressure memoizes the estimate
	// for one virtual instant (path decisions read it repeatedly), and
	// sockPressure does the same per socket for SocketPressure.
	latFloor   sim.Time
	pressure   float64
	pressureAt sim.Time
	pressureOK bool

	sockPressure   []float64
	sockPressureAt []sim.Time
	sockPressureOK []bool

	nextPASID int
	nextCore  int
}

// ServiceOption customizes a Service.
type ServiceOption func(*Service)

// WithScheduler selects the WQ-selection policy (default RoundRobin).
func WithScheduler(s Scheduler) ServiceOption { return func(sv *Service) { sv.sched = s } }

// WithPolicy sets the default policy inherited by new tenants.
func WithPolicy(p Policy) ServiceOption { return func(sv *Service) { sv.policy = p } }

// WithCPUModel sets the model used for cores the service creates for
// tenants (default SPR).
func WithCPUModel(m cpu.Model) ServiceOption { return func(sv *Service) { sv.model = m } }

// NewService builds a service over the given work queues (typically every
// enabled WQ of every platform device).
func NewService(e *sim.Engine, sys *mem.System, wqs []*dsa.WQ, opts ...ServiceOption) (*Service, error) {
	if len(wqs) == 0 {
		return nil, fmt.Errorf("offload: no work queues")
	}
	sv := &Service{
		E:         e,
		Sys:       sys,
		sched:     NewRoundRobin(),
		policy:    DefaultPolicy(),
		model:     cpu.SPRModel(),
		nextPASID: 1,
	}
	for _, o := range opts {
		o(sv)
	}
	sv.place, _ = sv.sched.(*Placement)
	sv.AddWQs(wqs...)
	return sv, nil
}

// AddWQs extends the submission target set (hot-plugging a device).
// Existing tenants see the new WQs on their next submission; their PASIDs
// are re-bound lazily by the per-WQ client path.
func (sv *Service) AddWQs(wqs ...*dsa.WQ) {
	sv.wqs = append(sv.wqs, wqs...)
	sv.maxBatch = 0
	for _, wq := range sv.wqs {
		if sv.maxBatch == 0 || wq.Dev.Cfg.MaxBatch < sv.maxBatch {
			sv.maxBatch = wq.Dev.Cfg.MaxBatch
		}
	}
	if sv.met == nil {
		sv.met = newMetrics(sv.E)
	}
	sv.met.observe(wqs)
	sv.topo = newTopology(sv.wqs, sv.Sys)
	sv.topo.met = sv.met
	// The per-socket pools changed; drop the memoized pressure estimates
	// and re-size the per-socket slots.
	sv.pressureOK = false
	n := sv.topo.Sockets()
	sv.sockPressure = make([]float64, n)
	sv.sockPressureAt = make([]sim.Time, n)
	sv.sockPressureOK = make([]bool, n)
}

// WQs returns the service's submission targets.
func (sv *Service) WQs() []*dsa.WQ { return sv.wqs }

// coalesceTick returns the interrupt-moderation timer granularity tenant
// coalescers round their windows to — the first device's, since the
// service's devices share a timing calibration in every supported profile.
func (sv *Service) coalesceTick() sim.Time {
	if len(sv.wqs) == 0 {
		return 0
	}
	return sv.wqs[0].Dev.Cfg.Timing.IntrCoalesceTick
}

// Topology returns the service's per-socket WQ placement index.
func (sv *Service) Topology() *Topology { return sv.topo }

// Telemetry returns the service's streaming-metrics hub, synced to the
// current virtual instant — the raw digests behind the policy views, for
// reports and tests.
func (sv *Service) Telemetry() *telemetry.Hub {
	sv.met.sync()
	return sv.met.hub
}

// Drifts returns the regime shifts the telemetry drift detector has
// flagged so far across the per-socket latency streams and every tenant's
// completion streams (surfaced per tenant in Stats.Drifts).
func (sv *Service) Drifts() int64 { return sv.met.drifts() }

// Scheduler returns the active scheduler.
func (sv *Service) Scheduler() Scheduler { return sv.sched }

// Policy returns the service-level default policy.
func (sv *Service) Policy() Policy { return sv.policy }

// NewTenant creates a submission context. By default it allocates a fresh
// PASID-bound address space and a core on socket 0; options override the
// socket, supply an existing address space (shared-memory tenants), an
// existing core, or a per-tenant policy.
func (sv *Service) NewTenant(opts ...TenantOption) (*Tenant, error) {
	cfg := tenantCfg{socket: 0, policy: sv.policy}
	for _, o := range opts {
		o(&cfg)
	}
	// Validate the tenant's socket up front: an exotic topology (or a typo
	// in OnSocket) must fail here with a clear error, not panic later in
	// the allocator when Tenant.localNode indexes an empty node list.
	socket := cfg.socket
	if cfg.core != nil {
		socket = cfg.core.Socket
	}
	if socket < 0 || socket >= len(sv.Sys.Sockets) {
		return nil, fmt.Errorf("offload: tenant socket %d out of range (platform has %d sockets)",
			socket, len(sv.Sys.Sockets))
	}
	if len(sv.Sys.SocketOf(socket).Nodes) == 0 {
		return nil, fmt.Errorf("offload: socket %d has no memory nodes to allocate from", socket)
	}
	as := cfg.as
	if as == nil && cfg.core != nil {
		// An adopted core already resolves software-path addresses through
		// its own space; a fresh PASID here would split the hardware and
		// software paths across two address spaces.
		as = cfg.core.AS
	}
	if as == nil {
		as = mem.NewAddressSpace(sv.nextPASID)
		sv.nextPASID++
	}
	core := cfg.core
	if core == nil {
		core = cpu.NewCore(sv.nextCore, cfg.socket, sv.Sys, as, sv.model)
		sv.nextCore++
	}
	t := &Tenant{
		S:       sv,
		AS:      as,
		Core:    core,
		class:   cfg.class,
		policy:  cfg.policy,
		clients: make(map[*dsa.WQ]*dsa.Client),
	}
	// Bind the tenant's PASID on every device backing the service, as an
	// SVM process bind would (§3.4 F1). Shared-mode WQs then accept this
	// tenant's ENQCMD submissions alongside every other tenant's.
	seen := make(map[*dsa.Device]bool)
	for _, wq := range sv.wqs {
		if !seen[wq.Dev] {
			seen[wq.Dev] = true
			wq.Dev.BindPASID(as)
		}
	}
	// Register the tenant's completion streams up front so the adaptive
	// policies can read them from the first completion on. Shared-space
	// tenants share a PASID and therefore a stream pair.
	sv.met.tenant(as.PASID)
	return t, nil
}

// tenantCfg collects tenant options.
type tenantCfg struct {
	socket int
	class  QoSClass
	as     *mem.AddressSpace
	core   *cpu.Core
	policy Policy
}

// TenantOption customizes a tenant at creation.
type TenantOption func(*tenantCfg)

// OnSocket places the tenant's core (and default allocations) on a socket.
func OnSocket(s int) TenantOption { return func(c *tenantCfg) { c.socket = s } }

// WithClass sets the tenant's QoS class (default Bulk). QoS-aware
// schedulers reserve the highest-priority WQ per socket for
// LatencySensitive tenants.
func WithClass(class QoSClass) TenantOption { return func(c *tenantCfg) { c.class = class } }

// SharedSpace makes the tenant submit from an existing address space
// instead of allocating a fresh PASID (threads of one process).
func SharedSpace(as *mem.AddressSpace) TenantOption { return func(c *tenantCfg) { c.as = as } }

// OnCore binds the tenant to an existing core instead of creating one.
func OnCore(core *cpu.Core) TenantOption { return func(c *tenantCfg) { c.core = core } }

// TenantPolicy overrides the service default policy for this tenant.
func TenantPolicy(p Policy) TenantOption { return func(c *tenantCfg) { c.policy = p } }
