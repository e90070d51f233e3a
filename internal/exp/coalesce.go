package exp

import (
	"fmt"
	"time"

	"dsasim/internal/offload"
	"dsasim/internal/platform"
	"dsasim/internal/report"
	"dsasim/internal/sim"
)

// Coalesce quantifies the completion-path overhaul (§4.4 made cheap): a
// bulk tenant draining Interrupt-mode completions pays ~2.6µs of delivery
// latency plus handler cost per descriptor, which dominates small-op
// offload the way Fig 11 shows polling burn does — the drain loop, not
// the device, becomes the bottleneck. Interrupt coalescing
// (Policy.CoalesceCount/CoalesceWindow) announces a window of finished
// records with one interrupt, so the delivery cost amortizes across the
// window. Three tables:
//
//   - coalesce: throughput vs op size, per delivery mode. Small ops gain
//     multiples — the 2.6µs wait dwarfs a 4KB transfer's device time —
//     while 256KB ops barely notice (delivery was already amortized by
//     the transfer itself).
//   - coalesce-window: throughput vs window depth at 4KB: the win rises
//     steeply then saturates once delivery stops being the bottleneck.
//   - coalesce-mix: what moderation would cost a latency-sensitive
//     tenant's p99 if it did NOT bypass the window (Policy.CoalesceAll)
//     while a bulk tenant coalesces next to it — the reason the QoS
//     resolution exempts the express classes.
func Coalesce() []*report.Table {
	sizes := []int64{1 << 10, 4 << 10, 16 << 10, 256 << 10}
	modes := []struct {
		name  string
		count int
	}{
		{"per-desc", 1},
		{"window-4", 4},
		{"window-16", 16},
		{"window-64", 64},
	}

	t1 := report.New("coalesce", "Interrupt coalescing: bulk async copy throughput vs op size (Interrupt waits, qd 128)", "size", "GB/s")
	for _, size := range sizes {
		for _, m := range modes {
			t1.SetNamed(m.name, sizeLabel(size), float64(size), coalesceThroughput(size, m.count))
		}
	}
	t1.Note("per-descriptor delivery caps the drain at ~1/(IntrDeliver+IntrHandler) completions per second; coalescing amortizes one delivery over the window (§4.4)")
	t1.Note("large transfers barely gain: the device time per op already dwarfs the delivery latency")

	t2 := report.New("coalesce-window", "Interrupt coalescing: 4KB bulk throughput vs window depth", "window", "GB/s")
	for _, count := range []int{1, 2, 4, 8, 16, 32, 64} {
		t2.Set("4KB", float64(count), coalesceThroughput(4<<10, count))
	}
	t2.Note("the win saturates once delivery stops being the bottleneck and submission/device time takes over")

	t3 := report.New("coalesce-mix", "QoS mix: latency-sensitive p99 vs the bulk tenant's coalescing depth", "bulk window", "p99 us")
	for _, count := range []int{1, 16, 64} {
		t3.Set("ls-bypass", float64(count), float64(coalesceMixP99(count, false))/1e3)
		t3.Set("ls-coalesced", float64(count), float64(coalesceMixP99(count, true))/1e3)
	}
	t3.Note("ls-bypass: the class resolution exempts latency-sensitive tenants, so bulk coalescing never touches the foreground p99")
	t3.Note("ls-coalesced (Policy.CoalesceAll): riding the moderation window trades the foreground tail for deliveries it could afford to pay per descriptor")
	return []*report.Table{t1, t2, t3}
}

// sizeLabel renders a power-of-two byte count.
func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// coalesceRig builds the SPR-QoS device layout (express 8 @ prio 15, bulk
// 24 @ prio 5, shared mode) behind a PriorityAware service with the
// default service policy: each tenant brings its own.
func coalesceRig() (*sim.Engine, *offload.Service) {
	pr := platform.SPRQoS()
	pr.Policy = nil
	pl := platform.NewPlatform(pr)
	return pl.E, pl.Offload
}

// coalescePol returns a policy coalescing count completions per delivery.
func coalescePol(count int) offload.Policy {
	pol := offload.DefaultPolicy()
	pol.CoalesceCount = count
	pol.CoalesceWindow = 8 * time.Microsecond
	return pol
}

// coalesceThroughput measures the GB/s a bulk tenant sustains streaming
// size-byte hardware copies with a 128-deep in-flight window, draining
// every completion with an Interrupt-mode wait coalesced count-deep
// (count ≤ 1 is per-descriptor delivery, the uncoalesced baseline).
func coalesceThroughput(size int64, count int) float64 {
	const (
		ops = 768
		qd  = 128
	)
	e, svc := coalesceRig()
	tn, err := svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.Bulk), offload.TenantPolicy(coalescePol(count)))
	if err != nil {
		panic(err)
	}
	src := tn.Alloc(size)
	dst := tn.Alloc(size)
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
	return sim.Rate(size*ops, end)
}

// coalesceMixP99 measures a latency-sensitive tenant's p99 completion
// latency (paced 16KB copies, Interrupt waits) while a bulk tenant keeps
// a 32-deep window of 64KB copies in flight coalesced bulkCount-deep.
// With lsCoalesced the foreground tenant is opted into the same
// moderation window (Policy.CoalesceAll) instead of taking the class
// default bypass — the ablation that shows why the bypass exists.
func coalesceMixP99(bulkCount int, lsCoalesced bool) sim.Time {
	const (
		lsOps  = 200
		lsSize = int64(16 << 10)
		bkSize = int64(64 << 10)
		bulkQD = 32
	)
	e, svc := coalesceRig()
	lsPol := coalescePol(bulkCount)
	lsPol.CoalesceAll = lsCoalesced
	ls, err := svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.LatencySensitive), offload.TenantPolicy(lsPol))
	if err != nil {
		panic(err)
	}
	bulk, err := svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.Bulk), offload.TenantPolicy(coalescePol(bulkCount)))
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
			p.Sleep(2 * time.Microsecond) // paced foreground, not a saturating stream
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
	return percentile(lats, 99)
}
