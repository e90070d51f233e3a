package fleet

import "time"

// rampMults is the shared load ramp: ~15-20% steps so the attained
// throughput moves at most one step under small perturbations, which is
// what lets CI hold an absolute floor on it.
var rampMults = []float64{0.5, 0.7, 0.85, 1.0, 1.15, 1.3, 1.5, 1.7, 2.0}

// fleetPhases is the shared phase schedule: a steady warm period, the
// compressed diurnal swing, a flash-crowd MMPP phase, an overload spike
// past the admission ceiling, and a post-overload recovery that shows
// whether the backlog drains.
func fleetPhases() []Phase {
	return []Phase{
		{Name: "steady", Kind: Steady, Mult: 1.0, Dur: 5 * time.Millisecond},
		{Name: "diurnal", Kind: Diurnal, Mult: 1.1, Dur: 6 * time.Millisecond},
		{Name: "burst", Kind: Burst, Mult: 1.0, Dur: 5 * time.Millisecond},
		{Name: "overload", Kind: Overload, Mult: 2.2, Dur: 4 * time.Millisecond},
		{Name: "recovery", Kind: Steady, Mult: 0.8, Dur: 4 * time.Millisecond},
	}
}

// Packetswitch is the packet-switch fleet scenario: a soft switch whose
// background plane forwards 32 KB frame batches through per-shard
// submission-plane lanes while foreground tenants issue 4 KB
// latency-sensitive lookups through the express path. ~30% of frames
// cross sockets, so data-home placement actually routes.
func Packetswitch() Scenario {
	return Scenario{
		Name:    "packetswitch-fleet",
		Seed:    0x5EED_F1EE7,
		Conns:   20000,
		Shards:  16,
		Tenants: 24,
		ZipfS:   1.1,

		BaseRate: 1.55e6,
		FgShare:  0.65,
		FgSize:   4 << 10,
		BgSize:   32 << 10,

		FgSLO: 30 * time.Microsecond,
		BgSLO: 120 * time.Microsecond,

		// 1.6× the base background rate: steady never sheds, the 2.2×
		// overload spike does.
		AdmitCap: 1.55e6 * 0.35 * 1.6,

		ConnChurn:   400,
		TenantChurn: 2500,
		BindCost:    6 * time.Microsecond,

		Phases:  fleetPhases(),
		Ramp:    rampMults,
		RampDur: 4 * time.Millisecond,
	}
}

// Msgbroker is the message-broker fleet scenario: producers append 16 KB
// messages that the broker checksums into a staging log and replicates
// to a consumer slab — per burst of four messages, one fused CRC→copy
// pipeline DAG — while foreground tenants run the metadata/ack path.
// The background budget is loose (500µs) because it deliberately
// includes the burst accumulation delay: an arrival waits for its batch,
// and the open-loop measurement charges that wait to the broker.
func Msgbroker() Scenario {
	return Scenario{
		Name:    "msgbroker-fleet",
		Seed:    0xB0C_A5EED,
		Conns:   12000,
		Shards:  12,
		Tenants: 16,
		ZipfS:   1.05,

		BaseRate: 1.2e6,
		FgShare:  0.5,
		FgSize:   4 << 10,
		BgSize:   16 << 10,

		FgSLO: 30 * time.Microsecond,
		BgSLO: 500 * time.Microsecond,

		// The admission unit is one pipeline DAG (Burst messages), so the
		// ceiling is on the DAG rate: 1.6× its base.
		AdmitCap: 1.2e6 * 0.5 / 4 * 1.6,

		ConnChurn:   400,
		TenantChurn: 2500,
		BindCost:    6 * time.Microsecond,

		Pipeline: true,
		Burst:    4,

		Phases:  fleetPhases(),
		Ramp:    rampMults,
		RampDur: 4 * time.Millisecond,
	}
}

// Chaos is the packet switch under injected failures: a steady trickle
// of page faults (cold destination pages), a cold-page storm, a
// transient express-WQ disable on socket 1 overlapping the storm, and a
// full outage of socket 0's device. The plan fits inside one RampDur so
// every SLO-attained ramp step experiences the complete fault sequence;
// in the phase run the injection ends early and the recovery tracker
// measures how long the tails take to come home. The default
// retry/fallback/failover policy is armed (DefuseRecovery is the
// negative control), and the chaos experiment gates on how much of the
// fault-free SLO-attained throughput survives. Not part of Scenarios():
// the fault-free tables stay fault-free.
func Chaos() Scenario {
	sc := Packetswitch()
	sc.Name = "chaos-fleet"
	sc.Seed = 0xC4A0_5EED
	sc.Faults = &FaultPlan{
		PageFaultPer4K: 0.0004,

		BurstPer4K: 0.02,
		BurstAt:    500 * time.Microsecond,
		BurstDur:   1 * time.Millisecond,

		// Express-WQ disable on socket 1: the foreground tenants homed
		// there reroute through the bulk queue or across UPI.
		DisableDev: 1,
		DisableWQ:  0,
		DisableAt:  1 * time.Millisecond,
		DisableDur: 800 * time.Microsecond,

		// Whole-device outage on socket 0, the background plane's home
		// socket. While it lasts the scheduler sends lane pushes and
		// retries to socket 1's bulk WQ, keeping off the express lanes,
		// and the drain fails over any entry still queued on a dead
		// ring. Failovers read 0 in the committed runs: at the outage
		// instant every plane ring is empty and socket 0's WQs hold 0–1
		// descriptors, so the faulted completions' retry re-queue absorbs
		// all the outage kills (faults equal retries).
		OutageDev: 0,
		OutageAt:  1800 * time.Microsecond,
		OutageDur: 1200 * time.Microsecond,
	}
	return sc
}

// Scenarios returns the shipped fleet scenarios in experiment order.
func Scenarios() []Scenario {
	return []Scenario{Packetswitch(), Msgbroker()}
}
