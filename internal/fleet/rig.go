package fleet

import (
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/platform"
	"dsasim/internal/sim"
)

// fleetRig builds the scenario platform: SPR-Adaptive's device layout
// (one DSA per socket with an express/bulk shared-WQ pair, behind the
// placement-qos scheduler) downsized to two engines per device so the
// overload phases actually exceed capacity within a tractable event
// budget, on the DRAM-only machine (the scenarios exercise socket
// placement, not memory tiering). Tenants bring their own policies.
// Returns the engine, the service and the devices.
func fleetRig() (*sim.Engine, *offload.Service, []*dsa.Device) {
	pr := platform.SPRAdaptive()
	pr.Nodes = pr.Nodes[:2]
	pr.Groups[0].Engines = 2
	pr.Policy = nil
	pl := platform.NewPlatform(pr)
	return pl.E, pl.Offload, pl.Devices
}

// frontPolicy is the background data plane's policy: data-home placement
// (its lanes ask the service's Placement scheduler like any submission),
// coalesced interrupt completions with adaptive window sizing, and
// shedding admission control at the scenario's cap — the production
// knobs, not a benchmark special. It leaves Policy.LoadAware off. With
// the lanes routed through the load-aware detour, the benchmark harness's
// default-seed fg p99 reads the same 3.456 µs on packetswitch and
// 5.035 µs on chaos: no gain to move every baseline for.
func frontPolicy(sc Scenario) offload.Policy {
	pol := offload.DefaultPolicy()
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 16
	pol.CoalesceWindow = 8 * time.Microsecond
	pol.CoalesceAdaptive = true
	pol.AdmitRate = sc.AdmitCap
	// Burst deep enough that Poisson clumping never sheds below the cap;
	// only sustained over-rate does (TestPlaneShedsOnlyOverCap).
	pol.AdmitBurst = 16 * sc.Shards
	pol.AdmitWait = false
	pol.MaxRetries = 2
	pol.SLOBudget = sc.BgSLO
	armRecovery(&pol, sc)
	return pol
}

// armRecovery turns on the default fault-recovery knobs when the
// scenario injects faults — unless it is the defused negative control,
// which keeps the fault plan armed but recovery off so the chaos gate
// can prove the recovery machinery is what preserves the SLO floor.
func armRecovery(pol *offload.Policy, sc Scenario) {
	if sc.Faults == nil || sc.DefuseRecovery {
		return
	}
	pol.RetryMax = 2
	pol.FallbackAfter = 3
}

// fgPolicy is a foreground tenant's policy: UMWAIT completion waits,
// load-aware placement, and the class latency budget for SLO accounting.
// Its Wait is the mode the shard reaper waits in. The reaper is a process
// with no other work to run, so the core an interrupt would free has
// nothing to do, and UMWAIT wakes it cpu.UMWaitWake after the record is
// written instead of IntrDeliver + IntrHandler after (§4.4, Fig 11), as
// the paper's DPDK Vhost data path reaps its DSA completions.
func fgPolicy(sc Scenario) offload.Policy {
	pol := offload.DefaultPolicy()
	pol.LoadAware = true
	pol.Wait = offload.UMWait
	pol.SLOBudget = sc.FgSLO
	armRecovery(&pol, sc)
	return pol
}

// fgTenant is one foreground tenant slot: the tenant and its payload
// buffers (replaced wholesale on churn — a new tenant is a new address
// space).
type fgTenant struct {
	tn       *offload.Tenant
	src, dst *mem.Buffer
}

// newFgTenant binds one foreground tenant on the given socket.
func newFgTenant(svc *offload.Service, sc Scenario, socket int) *fgTenant {
	tn, err := svc.NewTenant(offload.OnSocket(socket),
		offload.WithClass(offload.LatencySensitive), offload.TenantPolicy(fgPolicy(sc)))
	if err != nil {
		panic(err)
	}
	return &fgTenant{tn: tn, src: tn.Alloc(sc.FgSize), dst: tn.Alloc(sc.FgSize)}
}
