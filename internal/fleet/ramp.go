package fleet

import "fmt"

// shedCeil is the shed fraction a ramp step may incur per class and
// still count as meeting SLO: a service that sheds more than half a
// percent of a class has not attained that load.
const shedCeil = 0.005

// RampStep is one load-ramp measurement.
type RampStep struct {
	Mult   float64
	Kops   float64 // offered load at this step, kops/s
	Pass   bool
	Result Result
}

// Attained walks the scenario's load ramp from below: each multiplier
// runs as its own steady-phase scenario of RampDur, and a step passes
// when every class meets its p99 budget with shed below shedCeil. The
// SLO-attained throughput is the highest passing offered load before
// the first failure — the capacity-planning headline. Returns the
// attained throughput (kops/s), the base offered load (kops/s, the
// Mult=1.0 point the gates normalize against), and the per-step trace.
func Attained(sc Scenario) (attained, base float64, steps []RampStep) {
	base = sc.BaseRate / 1e3
	for i, m := range sc.Ramp {
		r := Run(rampStep(sc, i, m))
		st := RampStep{Mult: m, Kops: m * base, Pass: meetsSLO(&r, sc), Result: r}
		steps = append(steps, st)
		if !st.Pass {
			break
		}
		attained = st.Kops
	}
	return attained, base, steps
}

// rampStep derives one ramp run: a single steady phase at the given
// multiplier, seeded per step so runs stay independent yet reproducible.
func rampStep(sc Scenario, i int, m float64) Scenario {
	out := sc
	out.Name = fmt.Sprintf("%s-ramp%d", sc.Name, i)
	out.Seed = sc.Seed + uint64(i)*0x9E3779B9 + 1
	out.Phases = []Phase{{Name: "ramp", Kind: Steady, Mult: m, Dur: sc.RampDur}}
	out.Ramp = nil
	return out
}

// meetsSLO scores a single-phase run against the scenario's class
// budgets.
func meetsSLO(r *Result, sc Scenario) bool {
	ph := &r.Phases[0]
	if ph.P99[FG] > sc.FgSLO || ph.P99[BG] > sc.BgSLO {
		return false
	}
	durS := sc.RampDur.Seconds()
	for c := Class(0); c < nClasses; c++ {
		arrivals := ph.Offered[c] * durS * 1e3
		// Terminal faults are held to the same ceiling as sheds: an
		// operation the service lost past its retry budget is no more
		// attained than one it refused.
		if arrivals > 0 && float64(ph.Shed[c]+ph.Failed[c]) > shedCeil*arrivals {
			return false
		}
	}
	return true
}
