package dsa

import (
	"dsasim/internal/sim"
)

// Group is the basic operational unit of the device (§3.2): a set of WQs
// whose descriptors are dispatched by the group arbiter onto the group's
// engines, with WQ priorities providing QoS and read buffers bounding
// sustainable read bandwidth.
type Group struct {
	ID          int
	Dev         *Device
	WQs         []*WQ
	Engines     []*Engine
	ReadBufs    int
	ExpressBufs int // read buffers reserved for the top-priority WQs

	// readPipe caps the group's aggregate read bandwidth at
	// ReadBufs × line / local-DRAM-latency (Little's law over the read
	// buffers; §3.4 F3). When ExpressBufs partitions the allocation,
	// readPipe carries only the bulk share and expressPipe the reserved
	// lane for top-priority WQ reads.
	readPipe    *sim.Pipe
	expressPipe *sim.Pipe
	topPrio     int // highest WQ priority in the group (express lane key)

	// credits implement priority-weighted round-robin among WQs.
	credits []int
	rr      int

	// inflight tracks dispatched-but-incomplete works for Drain ordering.
	inflight int
	drainSig sim.Signal

	// dispatchFn is g.dispatch captured once: every submission schedules
	// a dispatch, and a method value allocates a closure per use.
	dispatchFn func()
}

// finalize computes derived state once the device is enabled.
func (g *Group) finalize() {
	t := g.Dev.Cfg.Timing
	// Sustainable read bandwidth from the allocated read buffers, assuming
	// local-DRAM fill latency. 96 bufs × 64 B / 110 ns ≈ 56 GB/s — above
	// the 30 GB/s fabric, so full allocations never bottleneck (§3.4 F3);
	// starving a group of buffers does.
	latNs := 110.0
	if len(g.Dev.Sys.Nodes) > 0 {
		latNs = float64(g.Dev.Sys.Nodes[0].ReadLat)
	}
	bufGBps := func(bufs int) float64 {
		gbps := float64(bufs) * float64(t.ReadBufLine) / latNs
		if gbps <= 0 {
			gbps = 0.5
		}
		return gbps
	}
	for _, wq := range g.WQs {
		if wq.Priority > g.topPrio {
			g.topPrio = wq.Priority
		}
	}
	// Auto-allocated groups (ReadBufs was 0 until Enable) may request a
	// larger express share than they ended up with; always leave the bulk
	// lane at least one buffer.
	express := g.ExpressBufs
	if express >= g.ReadBufs {
		express = g.ReadBufs - 1
	}
	if express > 0 {
		g.ExpressBufs = express
		g.expressPipe = sim.NewPipe(g.Dev.E, bufGBps(express))
		g.readPipe = sim.NewPipe(g.Dev.E, bufGBps(g.ReadBufs-express))
	} else {
		g.ExpressBufs = 0
		g.readPipe = sim.NewPipe(g.Dev.E, bufGBps(g.ReadBufs))
	}
	g.credits = make([]int, len(g.WQs))
	g.refillCredits()
}

// readPipeFor returns the read-bandwidth lane a descriptor's reads draw
// from: the reserved express partition when the submitting WQ holds the
// group's top priority, the shared/bulk allocation otherwise. Batch
// sub-descriptors inherit their parent's WQ.
func (g *Group) readPipeFor(wk *work) *sim.Pipe {
	if g.expressPipe == nil {
		return g.readPipe
	}
	wq := wk.wq
	if wq == nil && wk.parent != nil {
		wq = wk.parent.wk.wq
	}
	if wq != nil && wq.Priority >= g.topPrio {
		return g.expressPipe
	}
	return g.readPipe
}

func (g *Group) refillCredits() {
	for i, wq := range g.WQs {
		g.credits[i] = wq.Priority
	}
}

// nextWork selects the next descriptor for dispatch: WQs take turns by
// priority-weighted round-robin, and a WQ's turn serves its fetched batch
// sub-descriptors before its own queued entries. Each pick spends one of
// the WQ's credits, so a batch's children arbitrate at their parent WQ's
// priority (§3.4 F3): a higher-priority WQ's head waits for the next
// engine release, not for every queued child.
func (g *Group) nextWork() (*work, bool) {
	n := len(g.WQs)
	// Two passes: first honoring credits, then ignoring them (prevents
	// starvation when only zero-credit WQs are non-empty).
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			idx := (g.rr + i) % n
			wq := g.WQs[idx]
			if wq.pending() == 0 {
				continue
			}
			if pass == 0 && g.credits[idx] <= 0 {
				continue
			}
			wk, ok := wq.children.Pop()
			if !ok {
				wk, _ = wq.q.Pop()
				wq.occupied--
				wq.noteOcc()
				wq.ready()
			}
			g.credits[idx]--
			g.rr = (idx + 1) % n
			if g.allCreditsSpent() {
				g.refillCredits()
			}
			return wk, true
		}
	}
	return nil, false
}

func (g *Group) allCreditsSpent() bool {
	for i, wq := range g.WQs {
		if wq.pending() > 0 && g.credits[i] > 0 {
			return false
		}
	}
	return true
}

// dispatch hands queued descriptors to free engines. It is scheduled as an
// event whenever a descriptor arrives or an engine frees up.
func (g *Group) dispatch() {
	for _, eng := range g.Engines {
		if !eng.idle() {
			continue
		}
		wk, ok := g.nextWork()
		if !ok {
			return
		}
		eng.execute(wk)
	}
}

// armReleases schedules the engines' reserved releases once work is
// queued (Engine.armRelease).
func (g *Group) armReleases() {
	for _, eng := range g.Engines {
		eng.armRelease()
	}
}

// pending reports descriptors waiting in the group's queues.
func (g *Group) pending() int {
	n := 0
	for _, wq := range g.WQs {
		n += wq.pending()
	}
	return n
}
