package main

import (
	"fmt"
	"math"

	"dsasim/internal/fleet"
)

// fleetScenario returns the committed scenario a fleet workload runs.
func fleetScenario(name string) fleet.Scenario {
	switch name {
	case "packetswitch":
		return fleet.Packetswitch()
	case "msgbroker":
		return fleet.Msgbroker()
	default:
		return fleet.Chaos()
	}
}

// kneeGrid is the knee search's load ramp: the scenario's own coarse
// steps below design load, where no shipped scenario's knee sits, then a
// 2.5%-of-design-load grid up to 2.5x. fleet.Attained keeps its semantics
// on it: the walk stops at the first failing step.
var kneeGrid = func() []float64 {
	g := []float64{0.5, 0.7, 0.85}
	for i := 0; i <= 60; i++ {
		g = append(g, 1+0.025*float64(i))
	}
	return g
}()

// scenario is base scaled by scale with seed added to its seed.
func scenario(base fleet.Scenario, scale float64, seed uint64) fleet.Scenario {
	sc := base.Scaled(scale)
	sc.Seed += seed
	return sc
}

// phaseRun is one fleet phase run at a seed offset.
func phaseRun(base fleet.Scenario, scale float64, seed uint64) (fleet.Scenario, fleet.Result) {
	sc := scenario(base, scale, seed)
	return sc, fleet.Run(sc)
}

// fleetSetup builds everything a phase run builds — rig, tenants,
// connections, shard buffers, fault plan — over a zero-length schedule,
// so no arrival is generated.
func fleetSetup(base fleet.Scenario, scale float64, seed uint64) {
	sc := scenario(base, scale, seed)
	sc.Phases = []fleet.Phase{{Name: "setup", Kind: fleet.Steady, Mult: 1}}
	fleet.Run(sc)
}

// kneeResult is one seed's SLO-attained throughput on the knee grid.
type kneeResult struct {
	Seed  uint64
	Mult  float64 // attained load / design load
	Kops  float64
	Steps int // ramp steps the walk ran
}

// knee walks kneeGrid at one seed offset. Chaos keeps its fault plan with
// the whole-device outage zeroed, as the chaos experiment's ramp does: an
// N-1-capacity window in every step would measure one device's raw
// capacity, not recovery.
func knee(base fleet.Scenario, scale float64, seed uint64) kneeResult {
	sc := scenario(base, scale, seed)
	if sc.Faults != nil {
		plan := *sc.Faults
		plan.OutageDur = 0
		sc.Faults = &plan
	}
	sc.Ramp = kneeGrid
	attained, design, steps := fleet.Attained(sc)
	return kneeResult{Seed: seed, Mult: attained / design, Kops: attained, Steps: len(steps)}
}

// fleetTotals sums a run's per-phase accounting over the whole schedule.
type fleetTotals struct {
	arrivals, shed, failed int64
}

func totals(sc fleet.Scenario, r fleet.Result) fleetTotals {
	var t fleetTotals
	for pi, ph := range r.Phases {
		for c := range ph.Offered {
			t.arrivals += phaseArrivals(sc, pi, ph.Offered[c])
			t.shed += ph.Shed[c]
			t.failed += ph.Failed[c]
		}
	}
	return t
}

// phaseArrivals recovers a phase class's arrival count from its offered
// rate (kops/s over the phase duration).
func phaseArrivals(sc fleet.Scenario, phase int, offered float64) int64 {
	return int64(math.Round(offered * sc.Phases[phase].Dur.Seconds() * 1e3))
}

// checkFleet verifies one phase run's accounting: no phase and class ends
// more operations than arrived or serves more within budget than it was
// offered, the offload layer's own SLO accounting saw traffic, and a chaos
// run actually faulted, retried and recovered — the mechanism it exists to
// exercise.
func checkFleet(sc fleet.Scenario, r fleet.Result) error {
	if len(r.Phases) != len(sc.Phases) {
		return fmt.Errorf("%s: %d phases reported, %d scheduled", sc.Name, len(r.Phases), len(sc.Phases))
	}
	for pi, ph := range r.Phases {
		for c := range ph.Offered {
			arr := phaseArrivals(sc, pi, ph.Offered[c])
			if ph.Shed[c]+ph.Failed[c] > arr {
				return fmt.Errorf("%s phase %s class %d: shed %d + failed %d > %d arrivals",
					sc.Name, ph.Name, c, ph.Shed[c], ph.Failed[c], arr)
			}
			if ph.Goodput[c] > ph.Offered[c] {
				return fmt.Errorf("%s phase %s class %d: goodput %.3f > offered %.3f kops/s",
					sc.Name, ph.Name, c, ph.Goodput[c], ph.Offered[c])
			}
		}
	}
	if r.SLOOk+r.SLOMiss == 0 {
		return fmt.Errorf("%s: offload SLO accounting scored no operation", sc.Name)
	}
	if sc.Faults != nil && (r.Faults == 0 || r.Retries == 0 || !r.Recovered) {
		return fmt.Errorf("%s: faults=%d retries=%d recovered=%v; the fault plan did not exercise recovery",
			sc.Name, r.Faults, r.Retries, r.Recovered)
	}
	return nil
}
