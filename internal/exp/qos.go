package exp

import (
	"sort"
	"time"

	"dsasim/internal/offload"
	"dsasim/internal/platform"
	"dsasim/internal/report"
	"dsasim/internal/sim"
)

// QoS runs a two-tenant interference sweep on one SPR socket (§3.4 F3):
// a latency-sensitive tenant issues paced 16 KB copies while a bulk tenant
// keeps a window of 1 MB copies in flight. The device exposes a small
// high-priority shared WQ next to a large bulk shared WQ. Series compare
// plain least-loaded scheduling (QoS-blind: the bulk backlog queues ahead
// of foreground operations) against the PriorityAware scheduler combined
// with token-bucket admission control on the bulk tenant — the reserved
// express WQ plus rate limiting keep the foreground p99 flat as bulk
// inflight grows.
func QoS() []*report.Table {
	t := report.New("qos", "Two-tenant interference: latency-sensitive p99 copy latency", "bulk inflight", "p99 us")
	for _, qd := range []int{0, 8, 24} {
		for _, cfg := range qosConfigs() {
			p99 := qosP99(cfg, qd)
			t.Set(cfg.name, float64(qd), float64(p99)/1e3)
		}
	}
	t.Note("priority-aware + admission keeps the foreground p99 nearly flat under bulk interference; least-loaded lets megabyte transfers queue ahead of it (WQ priorities, §3.4 F3)")
	return []*report.Table{t}
}

// qosCfg selects the scheduler and the bulk tenant's admission policy for
// one series of the interference sweep.
type qosCfg struct {
	name  string
	sched func() offload.Scheduler
	// admitRate rate-limits the bulk tenant (ops/second of virtual time,
	// 0 = unlimited); over-limit submissions are delayed, not shed.
	admitRate float64
}

// qosConfigs returns the baseline (QoS-blind) and QoS-enabled series.
func qosConfigs() []qosCfg {
	return []qosCfg{
		{name: "least-loaded", sched: func() offload.Scheduler { return offload.NewLeastLoaded() }},
		{
			name:  "qos",
			sched: func() offload.Scheduler { return offload.NewPriorityAware() },
			// ~1 MB every 200 µs: a sixth of the ~30 GB/s device fabric,
			// leaving express slots and engine time for the foreground.
			admitRate: 5000,
		},
	}
}

// qosP99 measures the latency-sensitive tenant's p99 completion latency
// under cfg with bulkQD megabyte copies kept in flight by the bulk tenant.
func qosP99(cfg qosCfg, bulkQD int) sim.Time {
	pr := platform.SPRQoS()
	pr.Scheduler = cfg.sched
	pr.Policy = nil
	pl := platform.NewPlatform(pr)
	e, svc := pl.E, pl.Offload

	ls, err := svc.NewTenant(offload.OnSocket(0), offload.WithClass(offload.LatencySensitive))
	if err != nil {
		panic(err)
	}
	bulkPol := offload.DefaultPolicy()
	bulkPol.AdmitRate = cfg.admitRate
	bulkPol.AdmitBurst = 4
	bulkPol.AdmitWait = true // backpressure the bulk stream, never error
	bulk, err := svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.Bulk), offload.TenantPolicy(bulkPol))
	if err != nil {
		panic(err)
	}

	const (
		lsOps  = 200
		lsSize = int64(16 << 10)
		bkSize = int64(1 << 20)
	)
	lsSrc, lsDst := ls.Alloc(lsSize), ls.Alloc(lsSize)
	bkSrc, bkDst := bulk.Alloc(bkSize), bulk.Alloc(bkSize)

	var lats []sim.Time
	done := false
	e.Go("latency-sensitive", func(p *sim.Proc) {
		for i := 0; i < lsOps; i++ {
			f, err := ls.Copy(p, lsDst.Addr(0), lsSrc.Addr(0), lsSize)
			if err != nil {
				panic(err)
			}
			res, err := f.Wait(p, offload.Poll)
			if err != nil {
				panic(err)
			}
			lats = append(lats, res.Duration)
			p.Sleep(2 * time.Microsecond) // paced foreground, not a saturating stream
		}
		done = true
	})
	if bulkQD > 0 {
		e.Go("bulk", func(p *sim.Proc) {
			var window []*offload.Future
			for !done {
				f, err := bulk.Copy(p, bkDst.Addr(0), bkSrc.Addr(0), bkSize, offload.On(offload.Hardware))
				if err != nil {
					panic(err)
				}
				window = append(window, f)
				if len(window) >= bulkQD {
					if _, err := window[0].Wait(p, offload.Poll); err != nil {
						panic(err)
					}
					window = window[1:]
				}
			}
		})
	}
	e.Run()
	return percentile(lats, 99)
}

// percentile returns the pth percentile (nearest-rank) of the latencies.
func percentile(lats []sim.Time, p int) sim.Time {
	s := append([]sim.Time(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * p / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
