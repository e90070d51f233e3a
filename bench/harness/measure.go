package main

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"time"

	"dsasim/internal/fleet"
)

// workloads are the benchmark's workloads in run order.
var workloads = []string{"packetswitch", "msgbroker", "chaos", "device-4k"}

// config sizes one workload measurement. defaultConfig is the committed
// benchmark; the package test shrinks every knob.
type config struct {
	seconds      time.Duration // least host time the timed repeats run
	seeds        int           // distinct seed offsets of the timed repeats
	maxRepeats   int
	phaseScale   float64 // fleet.Scenario.Scaled factor of a phase run
	kneeScale    float64 // Scaled factor of the knee search's ramp steps
	kneeSeeds    int
	descriptors  int // device-4k descriptors per repeat
	setups       int // least setup repeats
	setupTime    time.Duration
	ladderScale  float64 // multiplies every rung's call count
	spansPerRung int
}

func defaultConfig(seconds time.Duration) config {
	return config{
		seconds:      seconds,
		seeds:        9,
		maxRepeats:   25,
		phaseScale:   4,
		kneeScale:    1,
		kneeSeeds:    3,
		descriptors:  1_000_000,
		setups:       11,
		setupTime:    300 * time.Millisecond,
		ladderScale:  1,
		spansPerRung: 600,
	}
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's measurement, as a child process reports it.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a failed check and the operations it covers.
func (r *result) fail(ops int64, err error) {
	r.Correct = false
	r.Failed += ops
	r.note("FAIL: %v", err)
}

// measure runs one workload in this process. With traced false it reports
// the end-to-end metrics; with traced true the per-layer metrics, which
// include the layer ladder's, and returns the ladder's spans.
func measure(name string, cfg config, seed uint64, traced bool) (*result, *tracer) {
	res := &result{Workload: name, Correct: true, Metrics: map[string]metric{}}
	if traced {
		// One seed, run twice: the repeat is the determinism check.
		cfg.seeds, cfg.seconds, cfg.maxRepeats, cfg.kneeSeeds = 1, 0, 2, 1
		zeroCounters(res)
	}
	if name == "device-4k" {
		measureDevice(res, cfg, seed, traced)
	} else {
		measureFleet(res, fleetScenario(name), cfg, seed, traced)
	}
	if !traced {
		return res, nil
	}
	lr := runLadder(cfg.ladderScale, cfg.spansPerRung)
	for k, m := range lr.metrics {
		res.Metrics[k] = m
	}
	res.Attempted += lr.calls
	res.Failed += lr.failed
	for _, err := range lr.errs {
		res.fail(0, fmt.Errorf("ladder %w", err))
	}
	return res, lr.trace
}

// repeat is one timed run of a workload.
type repeat struct {
	wallNs float64 // raw host ns per op
	hostNs float64 // calibrated host ns per op
	allocs float64 // heap allocations per op
	calib  time.Duration
}

// trial is one repeat's work: run is timed and returns the operations it
// executed, check runs untimed afterwards and returns an error for a
// wrong result.
type trial struct {
	run   func() int64
	check func() error
}

// timeRepeats runs trials over seed offsets 0..seeds-1, then again from 0,
// until at least seeds+1 repeats (so one seed is always repeated and
// checked for determinism) and cfg.seconds of host time are spent, at
// most cfg.maxRepeats. A calibration pass runs before the first repeat and
// after each; a repeat is normalised by the passes on either side of it.
func timeRepeats(res *result, cfg config, prep func(k int) trial) []repeat {
	var reps []repeat
	start := time.Now()
	runtime.GC()
	before := calibrate()
	for i := 0; i < cfg.maxRepeats && (i <= cfg.seeds || time.Since(start) < cfg.seconds); i++ {
		tr := prep(i % cfg.seeds)
		runtime.GC()
		m := startMeter()
		ops := tr.run()
		out := m.stop()
		after := calibrate()
		reps = append(reps, repeat{
			wallNs: float64(out.host) / float64(ops),
			hostNs: calibrated(out.host, before, after) / float64(ops),
			allocs: float64(out.mallocs) / float64(ops),
			calib:  (before + after) / 2,
		})
		before = after
		res.Attempted += ops
		if err := tr.check(); err != nil {
			res.fail(ops, err)
		}
	}
	return reps
}

// timeSetups times setup repeatedly — at least cfg.setups times and for
// at least cfg.setupTime — and returns the median in calibrated seconds.
func timeSetups(cfg config, setup func()) float64 {
	runtime.GC()
	before := calibrate()
	var ds []float64
	start := time.Now()
	for len(ds) < cfg.setups || (time.Since(start) < cfg.setupTime && len(ds) < 1000) {
		t0 := time.Now()
		setup()
		ds = append(ds, float64(time.Since(t0)))
	}
	after := calibrate()
	return calibrated(time.Duration(median(ds)), before, after) / 1e9
}

// hostMetrics reports the timed repeats' host cost, read right after them.
func hostMetrics(res *result, reps []repeat, traced bool) {
	pick := func(f func(repeat) float64) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return median(vs)
	}
	wall, calib := pick(func(r repeat) float64 { return r.wallNs }), pick(func(r repeat) float64 { return r.calib.Seconds() })
	if traced {
		res.set("host.wall_ns_per_op", wall, "ns")
		res.set("host.calib_s", calib, "s")
		return
	}
	res.note("%d timed repeats: raw %.0f ns/op, calibration pass %.1f ms", len(reps), wall, calib*1e3)
	res.set("host_ns_per_op", pick(func(r repeat) float64 { return r.hostNs }), "ns")
	res.set("allocs_per_op", pick(func(r repeat) float64 { return r.allocs }), "count")
	// Peak RSS so far: the timed repeats are the first thing a child runs,
	// so set-up timing and the knee search cannot raise it.
	res.set("max_rss_mb", maxRSSMB(), "MB")
}

// measureFleet runs a fleet workload: timed phase runs over cfg.seeds seed
// offsets, the knee search over cfg.kneeSeeds, and the zero-length
// schedule for set-up time.
func measureFleet(res *result, base fleet.Scenario, cfg config, seed uint64, traced bool) {
	runs := make([]fleet.Result, cfg.seeds)
	scs := make([]fleet.Scenario, cfg.seeds)
	seen := make([]bool, cfg.seeds)
	reps := timeRepeats(res, cfg, func(k int) trial {
		var sc fleet.Scenario
		var r fleet.Result
		return trial{
			run: func() int64 {
				sc, r = phaseRun(base, cfg.phaseScale, seed+uint64(k))
				return totals(sc, r).arrivals
			},
			check: func() error {
				if seen[k] {
					if !reflect.DeepEqual(runs[k], r) {
						return fmt.Errorf("%s seed +%d: a repeat returned a different result", sc.Name, seed+uint64(k))
					}
					return nil
				}
				seen[k], runs[k], scs[k] = true, r, sc
				return checkFleet(sc, r)
			},
		}
	})
	hostMetrics(res, reps, traced)
	if !traced {
		res.set("setup_s", timeSetups(cfg, func() { fleetSetup(base, cfg.phaseScale, seed) }), "s")
	}

	var knees []float64
	for k := 0; k < cfg.kneeSeeds; k++ {
		kr := knee(base, cfg.kneeScale, seed+uint64(k))
		res.note("knee seed +%d: %.3fx design load = %.1f kops/s (%d ramp steps)", kr.Seed, kr.Mult, kr.Kops, kr.Steps)
		if kr.Kops <= 0 {
			res.fail(0, fmt.Errorf("%s seed +%d: no ramp step met the SLO", base.Name, kr.Seed))
		}
		knees = append(knees, kr.Kops)
		if traced {
			res.set("fleet.knee_steps", float64(kr.Steps), "count")
		}
	}

	if traced {
		fleetCounters(res, scs[0], runs[0])
		return
	}
	var p99, served []float64
	for k, r := range runs {
		p99 = append(p99, us(r.Phases[0].P99[fleet.FG]))
		t := totals(scs[k], r)
		served = append(served, 1-float64(t.shed+t.failed)/float64(t.arrivals))
	}
	// Sketch quantiles move in ~10% bucket steps; a mean over seeds moves
	// in finer ones than any one seed's p99 or their median.
	res.set("sim_kops", median(knees), "kops/s")
	res.set("fg_p99_us", mean(p99), "sim_us")
	res.set("served_frac", mean(served), "frac")
}

// fleetCounters reports one phase run's service-layer counters.
func fleetCounters(res *result, sc fleet.Scenario, r fleet.Result) {
	t := totals(sc, r)
	res.set("fleet.arrivals", float64(t.arrivals), "count")
	steady := r.Phases[0]
	res.set("fleet.fg_p999_us", us(steady.P999[fleet.FG]), "sim_us")
	res.set("fleet.bg_p99_us", us(steady.P99[fleet.BG]), "sim_us")
	res.set("fleet.bg_p999_us", us(steady.P999[fleet.BG]), "sim_us")
	res.set("fleet.failed_frac", float64(t.shed+t.failed)/float64(t.arrivals), "frac")
	res.set("fleet.recovery_windows", float64(r.RecoveryWindows), "count")
	res.set("offload.shed", float64(t.shed), "count")
	res.set("offload.failed", float64(t.failed), "count")
	res.set("offload.faults", float64(r.Faults), "count")
	res.set("offload.retries", float64(r.Retries), "count")
	res.set("offload.fallbacks", float64(r.Fallbacks), "count")
	res.set("offload.failovers", float64(r.Failovers), "count")
	if scored := r.SLOOk + r.SLOMiss; scored > 0 {
		res.set("offload.slo_miss_frac", float64(r.SLOMiss)/float64(scored), "frac")
	}
	if r.Faults > 0 {
		res.set("offload.recovered_frac", 1-float64(t.failed)/float64(r.Faults), "frac")
	}
}

// measureDevice runs device-4k: timed closed-loop repeats over cfg.seeds
// seeded sources, each verified, and the rig build for set-up time.
func measureDevice(res *result, cfg config, seed uint64, traced bool) {
	outs := make([]deviceResult, cfg.seeds)
	seen := make([]bool, cfg.seeds)
	reps := timeRepeats(res, cfg, func(k int) trial {
		rig := newDeviceRig(seed + uint64(k))
		var out deviceResult
		return trial{
			run: func() int64 {
				out = rig.run(cfg.descriptors)
				return out.Descriptors
			},
			check: func() error {
				if err := rig.verify(out); err != nil {
					return err
				}
				if seen[k] && !reflect.DeepEqual(outs[k], out) {
					return fmt.Errorf("device-4k seed +%d: a repeat returned a different result", seed+uint64(k))
				}
				seen[k], outs[k] = true, out
				return nil
			},
		}
	})
	hostMetrics(res, reps, traced)
	out := outs[0]
	if traced {
		st := out.Stats
		res.set("dsa.engine_busy_frac", out.BusyFrac, "frac")
		res.set("dsa.atc_hit_frac", float64(st.ATCHits)/float64(st.ATCHits+st.ATCMisses), "frac")
		res.set("dsa.completed", float64(st.Completed), "count")
		res.set("dsa.sim_gbps", out.gbps(), "GB/s")
		return
	}
	res.set("setup_s", timeSetups(cfg, func() { newDeviceRig(seed) }), "s")
	res.set("sim_kops", float64(out.Descriptors)/out.Elapsed.Seconds()/1e3, "kops/s")
	res.set("fg_p99_us", us(out.P99), "sim_us")
	res.set("served_frac", float64(out.Descriptors-out.Failed)/float64(out.Descriptors), "frac")
}

// zeroCounters presets every workload counter the per-layer report
// carries: a workload that does not exercise a layer, or whose run does
// not expose it (the fleet rig's devices are internal to fleet.Run),
// reports 0.
func zeroCounters(res *result) {
	for _, c := range []struct{ name, unit string }{
		{"fleet.arrivals", "count"}, {"fleet.knee_steps", "count"},
		{"fleet.fg_p999_us", "sim_us"}, {"fleet.bg_p99_us", "sim_us"}, {"fleet.bg_p999_us", "sim_us"},
		{"fleet.failed_frac", "frac"}, {"fleet.recovery_windows", "count"},
		{"offload.shed", "count"}, {"offload.failed", "count"}, {"offload.faults", "count"},
		{"offload.retries", "count"}, {"offload.fallbacks", "count"}, {"offload.failovers", "count"},
		{"offload.slo_miss_frac", "frac"}, {"offload.recovered_frac", "frac"},
		{"dsa.engine_busy_frac", "frac"}, {"dsa.atc_hit_frac", "frac"}, {"dsa.completed", "count"},
		{"dsa.sim_gbps", "GB/s"},
	} {
		res.set(c.name, 0, c.unit)
	}
}

// maxRSSMB is this process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kb /= 1024 // bytes there
	}
	return kb / 1024
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// median returns the median of vs (the mean of the middle two for an
// even count).
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
