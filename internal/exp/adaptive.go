package exp

import (
	"time"

	"dsasim/internal/offload"
	"dsasim/internal/platform"
	"dsasim/internal/report"
	"dsasim/internal/sim"
	"dsasim/internal/telemetry"
)

// Adaptive closes the loop on the telemetry plane: one adaptive policy
// (pressure-scaled threshold, load-aware placement, rate-sized interrupt
// coalescing — every knob reading internal/telemetry digests) is run
// unchanged across three traffic regimes, against a static policy
// hand-retuned for each regime. Three tables:
//
//   - adaptive: score per regime (uniform GB/s, latmix 1000/p99µs so
//     higher is better throughout, burst GB/s), series static vs
//     adaptive. The closed loop must stay within 10% of the per-regime
//     hand tuning — the "no retuning" claim, gated in CI. On the uniform
//     regime it wins outright: the load-aware detour spills the
//     saturating stream onto the second socket's device, which no fixed
//     policy knob reaches.
//   - adaptive-drift: regime shifts the telemetry drift detector flagged
//     on the adaptive run's tenant streams. The bursty regime's fast/slow
//     phase changes must be caught; the steady regimes see at most the
//     initial idle-to-saturated ramp.
//   - adaptive-streams: the bursty adaptive run's raw telemetry digests
//     (per-WQ, per-socket, per-tenant), the observability surface the
//     control loop steers by.
func Adaptive() []*report.Table {
	regimes := []struct {
		name   string
		static offload.Policy
		run    func(offload.Policy) adaptiveResult
	}{
		// Hand tuning per regime (each value is the best its knob sweep
		// found): the steady regimes sit at moderate coalescing depth,
		// the bursty phases at per-descriptor delivery, so slow-phase
		// completions are never held to the moderation timer.
		{"uniform", staticPol(16, 8*time.Microsecond), adaptiveUniform},
		{"latmix", staticPol(16, 8*time.Microsecond), adaptiveLatmix},
		{"burst", staticPol(1, 8*time.Microsecond), adaptiveBurst},
	}

	t1 := report.New("adaptive", "Closed loop vs hand-tuned static policy per traffic regime", "regime", "score (higher better)")
	t2 := report.New("adaptive-drift", "Regime shifts flagged by the telemetry drift detector (adaptive run)", "regime", "drifts")
	var burstRows []report.StreamRow
	for i, rg := range regimes {
		x := float64(i)
		st := rg.run(rg.static)
		ad := rg.run(adaptivePol())
		t1.SetNamed("static", rg.name, x, st.score)
		t1.SetNamed("adaptive", rg.name, x, ad.score)
		t2.SetNamed("drifts", rg.name, x, float64(ad.drifts))
		if rg.name == "burst" {
			burstRows = ad.rows
		}
	}
	t1.Note("static is retuned for every regime; adaptive is one unchanged policy steering by telemetry (occupancy/latency EWMAs, tenant completion rate)")
	t1.Note("uniform: the closed loop's load-aware detour finds the second socket a fixed data-home policy leaves idle")
	t1.Note("uniform and burst score GB/s; latmix scores 1000/p99µs of the latency-sensitive tenant")
	t2.Note("the bursty regime's fast/slow phase changes shift the tenant's completion rate by >2x sustained — the drift detector must flag them")
	t3 := report.TelemetryTable("adaptive-streams", "Telemetry digests after the bursty adaptive run", burstRows)
	t3.Note("occupancy streams are in per-mille of the WQ size; latency and inter-arrival streams in us")
	return []*report.Table{t1, t2, t3}
}

// adaptiveResult is one regime measurement.
type adaptiveResult struct {
	score  float64
	drifts int64
	rows   []report.StreamRow
}

// adaptivePol is the one closed-loop policy every regime runs unchanged.
func adaptivePol() offload.Policy {
	pol := offload.DefaultPolicy()
	pol.AdaptiveThreshold = true
	pol.LoadAware = true
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 16
	pol.CoalesceWindow = 8 * time.Microsecond
	pol.CoalesceAdaptive = true
	return pol
}

// staticPol is a hand-tuned fixed policy: Interrupt waits with the given
// coalescing depth, no telemetry feedback.
func staticPol(count int, window time.Duration) offload.Policy {
	pol := offload.DefaultPolicy()
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = count
	pol.CoalesceWindow = window
	return pol
}

// adaptiveRig builds the SPR-Adaptive device layout and scheduler under the
// default service policy: each tenant brings its own.
func adaptiveRig() (*sim.Engine, *offload.Service) {
	pr := platform.SPRAdaptive()
	pr.Policy = nil
	pl := platform.NewPlatform(pr)
	return pl.E, pl.Offload
}

// streamRows flattens every telemetry digest into report rows at the
// engine's final instant (ns-valued streams rendered as µs).
func streamRows(e *sim.Engine, svc *offload.Service) []report.StreamRow {
	hub := svc.Telemetry()
	now := e.Now()
	rows := make([]report.StreamRow, 0, hub.Streams())
	for id := 0; id < hub.Streams(); id++ {
		d := hub.Digest(telemetry.ID(id))
		rows = append(rows, report.StreamRow{
			Name:       hub.Name(telemetry.ID(id)),
			Count:      d.Count(),
			RatePerSec: d.Rate(now),
			MeanUs:     d.Mean() / 1e3,
			P50Us:      float64(d.Quantile(now, 0.50)) / 1e3,
			P95Us:      float64(d.Quantile(now, 0.95)) / 1e3,
			P99Us:      float64(d.Quantile(now, 0.99)) / 1e3,
			Drifts:     d.Drifts(),
		})
	}
	return rows
}

// adaptiveUniform is the steady bulk regime: one tenant streaming 256KB
// hardware copies 64 deep. Score: GB/s.
func adaptiveUniform(pol offload.Policy) adaptiveResult {
	const (
		ops  = 256
		size = int64(256 << 10)
		qd   = 64
	)
	e, svc := adaptiveRig()
	tn, err := svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
	if err != nil {
		panic(err)
	}
	src, dst := tn.Alloc(size), tn.Alloc(size)
	var end sim.Time
	e.Go("bulk", func(p *sim.Proc) {
		var window []*offload.Future
		for i := 0; i < ops; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), size, offload.On(offload.Hardware))
			if err != nil {
				panic(err)
			}
			window = append(window, f)
			if len(window) >= qd {
				if _, err := window[0].Wait(p, offload.Interrupt); err != nil {
					panic(err)
				}
				window = window[1:]
			}
		}
		for _, f := range window {
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				panic(err)
			}
		}
		end = p.Now()
	})
	e.Run()
	return adaptiveResult{score: sim.Rate(size*ops, end), drifts: tn.Stats().Drifts}
}

// adaptiveLatmix is the QoS mix regime: a paced latency-sensitive tenant
// next to a saturating bulk tenant. Score: 1000/p99µs of the foreground
// tenant (higher is better, so the CI ratio gate composes with the other
// regimes' throughput scores).
func adaptiveLatmix(pol offload.Policy) adaptiveResult {
	const (
		lsOps  = 150
		lsSize = int64(16 << 10)
		bkSize = int64(64 << 10)
		bulkQD = 32
	)
	e, svc := adaptiveRig()
	ls, err := svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.LatencySensitive), offload.TenantPolicy(pol))
	if err != nil {
		panic(err)
	}
	bulk, err := svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
	if err != nil {
		panic(err)
	}
	lsSrc, lsDst := ls.Alloc(lsSize), ls.Alloc(lsSize)
	bkSrc, bkDst := bulk.Alloc(bkSize), bulk.Alloc(bkSize)

	var lats []sim.Time
	done := false
	e.Go("latency-sensitive", func(p *sim.Proc) {
		for i := 0; i < lsOps; i++ {
			f, err := ls.Copy(p, lsDst.Addr(0), lsSrc.Addr(0), lsSize, offload.On(offload.Hardware))
			if err != nil {
				panic(err)
			}
			res, err := f.Wait(p, offload.Interrupt)
			if err != nil {
				panic(err)
			}
			lats = append(lats, res.Duration)
			p.Sleep(2 * time.Microsecond)
		}
		done = true
	})
	e.Go("bulk", func(p *sim.Proc) {
		var window []*offload.Future
		for !done {
			f, err := bulk.Copy(p, bkDst.Addr(0), bkSrc.Addr(0), bkSize, offload.On(offload.Hardware))
			if err != nil {
				panic(err)
			}
			window = append(window, f)
			if len(window) >= bulkQD {
				if _, err := window[0].Wait(p, offload.Interrupt); err != nil {
					panic(err)
				}
				window = window[1:]
			}
		}
		for _, f := range window {
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				panic(err)
			}
		}
	})
	e.Run()
	p99us := float64(percentile(lats, 99)) / 1e3
	return adaptiveResult{score: 1000 / p99us, drifts: ls.Stats().Drifts}
}

// adaptiveBurst is the bursty skew regime: one tenant alternating
// saturating 16KB bursts with slow paced phases (20µs per op), four phase
// changes in all — each shifts the completion rate by well over the drift
// detector's 2x threshold. Score: GB/s over the whole phased run.
func adaptiveBurst(pol offload.Policy) adaptiveResult {
	const (
		size    = int64(16 << 10)
		fastOps = 96
		slowOps = 32
		qd      = 32
	)
	e, svc := adaptiveRig()
	tn, err := svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
	if err != nil {
		panic(err)
	}
	src, dst := tn.Alloc(size), tn.Alloc(size)
	var end sim.Time
	var total int64
	e.Go("burst", func(p *sim.Proc) {
		submit := func() *offload.Future {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), size, offload.On(offload.Hardware))
			if err != nil {
				panic(err)
			}
			total += size
			return f
		}
		for phase := 0; phase < 4; phase++ {
			if phase%2 == 0 {
				var window []*offload.Future
				for i := 0; i < fastOps; i++ {
					window = append(window, submit())
					if len(window) >= qd {
						if _, err := window[0].Wait(p, offload.Interrupt); err != nil {
							panic(err)
						}
						window = window[1:]
					}
				}
				for _, f := range window {
					if _, err := f.Wait(p, offload.Interrupt); err != nil {
						panic(err)
					}
				}
			} else {
				for i := 0; i < slowOps; i++ {
					f := submit()
					if _, err := f.Wait(p, offload.Interrupt); err != nil {
						panic(err)
					}
					p.Sleep(20 * time.Microsecond)
				}
			}
		}
		end = p.Now()
	})
	e.Run()
	return adaptiveResult{
		score:  sim.Rate(total, end),
		drifts: tn.Stats().Drifts,
		rows:   streamRows(e, svc),
	}
}
