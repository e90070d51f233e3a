package telemetry

import (
	"time"

	"dsasim/internal/sim"
)

// Windowing and drift shape.
const (
	// ringWindows is the tumbling-window ring depth: quantile and rate
	// views aggregate the current window plus the last ringWindows-1
	// closed ones, so a read sees roughly ringWindows × window of recent
	// history and older samples age out instead of freezing the view at
	// a past burst.
	ringWindows = 8

	// DefaultWindow is the tumbling-window span digests rotate on. 50µs
	// is a few hundred completions of a saturated device — enough per
	// window for stable percentiles, short enough that the drift detector
	// reacts within a few hundred microseconds of a regime shift.
	DefaultWindow = 50 * time.Microsecond

	// ewmaAlpha matches the 1/8-per-sample smoothing the WQ occupancy and
	// latency histories used before they moved here, so the adaptive
	// threshold and placement cost model see the same signal dynamics.
	ewmaAlpha = 0.125

	// Drift detection: a closed window whose event rate (or p99) deviates
	// from the smoothed baseline by more than driftFactor in either
	// direction counts as shifted; driftSustain consecutive shifted
	// windows flag one regime shift (single-window spikes are absorbed).
	// Windows are compared only when the larger side carries at least
	// driftMinCount events — near-empty windows make noisy baselines.
	driftFactor   = 2.0
	driftSustain  = 2
	driftMinCount = 8

	// baselineAlpha smooths the per-window rate/p99 baselines the drift
	// detector compares against. Shifted windows are NOT folded in: a
	// genuine regime change keeps deviating from the old baseline until
	// it is flagged, at which point the baseline snaps to the new regime.
	baselineAlpha = 0.25
)

// windowAgg is one tumbling window's accumulation.
type windowAgg struct {
	count int64
	sum   int64
	sk    Sketch
}

// reset empties the window. An empty window is left alone: clearing its
// sketch would rewrite every bucket to the zeros it already holds.
func (w *windowAgg) reset() {
	if w.count == 0 {
		return
	}
	w.count, w.sum = 0, 0
	w.sk.Reset()
}

// Digest is one stream's windowed statistics: all-time count/sum/EWMA plus
// a ring of tumbling-window sketches for rate and quantile views, with a
// window-over-window drift detector. Record and every read path are
// allocation-free; windows rotate in virtual time as samples arrive.
type Digest struct {
	window sim.Time
	start  sim.Time // current window's start instant
	opened bool
	cur    int
	filled int // closed windows currently live in the ring
	ring   [ringWindows]windowAgg

	count   int64
	sum     int64
	ewma    float64 // seeded by the first sample, smoothed by ewmaAlpha after it
	firstAt sim.Time

	drift driftState
}

// driftState is the drift detector's state (see closeWindow).
type driftState struct {
	baseRate, baseP99 float64
	baseSet           bool
	shiftRun          int
	drifts            int64
	lastDriftAt       sim.Time
}

// NewDigest returns a digest rotating on the given window span
// (DefaultWindow when non-positive).
func NewDigest(window sim.Time) *Digest {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Digest{window: window}
}

// Record folds one sample at virtual instant at into the digest, rotating
// windows as needed. Samples arrive in timestamp order; a shard sample
// whose window a read closed before the merge joins the current window —
// standard late-data policy for tumbling windows.
func (d *Digest) Record(at sim.Time, v int64) {
	if !d.opened {
		d.opened = true
		d.start = at
		d.firstAt = at
		d.ewma = float64(v)
	}
	d.advance(at)
	w := &d.ring[d.cur]
	w.count++
	w.sum += v
	w.sk.Add(v)
	d.count++
	d.sum += v
	d.ewma += ewmaAlpha * (float64(v) - d.ewma)
}

// advance rotates the ring until at falls inside the current window,
// closing every window on the way, so each view is the same whenever and
// however often the digest is read. Closing an empty window is a function
// of the drift state alone: once one leaves that state unchanged, so would
// every later one, and the rest of the gap is skipped in one step.
func (d *Digest) advance(at sim.Time) {
	for at >= d.start+d.window {
		idle := d.ring[d.cur].count == 0
		before := d.drift
		d.closeWindow(d.start + d.window)
		d.rotate(1)
		if idle && d.drift == before {
			d.rotate(int64((at - d.start) / d.window))
			return
		}
	}
}

// rotate opens the next k windows: the ring slots they reuse are emptied
// and the count of closed windows it holds saturates at ringWindows-1.
func (d *Digest) rotate(k int64) {
	for i := int64(1); i <= k && i <= ringWindows; i++ {
		d.ring[(int64(d.cur)+i)%ringWindows].reset()
	}
	d.cur = int((int64(d.cur) + k) % ringWindows)
	d.start += sim.Time(k) * d.window
	d.filled = int(min(int64(d.filled)+k, ringWindows-1))
}

// closeWindow runs the drift detector over the window that just ended:
// its event rate and p99 are compared against smoothed baselines, and
// driftSustain consecutive windows deviating by more than driftFactor
// flag one regime shift. The baseline only absorbs unshifted windows, so
// a genuine new regime keeps deviating until flagged — then the baseline
// snaps to it and the detector re-arms for the next shift.
func (d *Digest) closeWindow(endAt sim.Time) {
	w, s := &d.ring[d.cur], &d.drift
	rate := float64(w.count) / d.window.Seconds()
	var p99 int64
	if w.count > 0 {
		p99 = w.sk.Quantile(0.99)
	}

	if !s.baseSet {
		if w.count >= driftMinCount {
			s.baseRate, s.baseP99, s.baseSet = rate, float64(p99), true
		}
		return
	}
	shifted := false
	baseCount := s.baseRate * d.window.Seconds()
	if w.count >= driftMinCount || baseCount >= driftMinCount {
		if rate > driftFactor*s.baseRate || rate < s.baseRate/driftFactor {
			shifted = true
		}
	}
	if w.count >= driftMinCount && s.baseP99 > 0 {
		if f := float64(p99); f > driftFactor*s.baseP99 || f < s.baseP99/driftFactor {
			shifted = true
		}
	}
	if shifted {
		s.shiftRun++
		if s.shiftRun >= driftSustain {
			s.drifts++
			s.lastDriftAt = endAt
			s.shiftRun = 0
			// The new regime becomes the baseline.
			s.baseRate, s.baseP99 = rate, float64(p99)
			if w.count < driftMinCount {
				s.baseSet = false
			}
		}
		return
	}
	s.shiftRun = 0
	s.baseRate += baselineAlpha * (rate - s.baseRate)
	if w.count >= driftMinCount {
		s.baseP99 += baselineAlpha * (float64(p99) - s.baseP99)
	}
}

// Count returns the all-time sample count.
func (d *Digest) Count() int64 { return d.count }

// Mean returns the all-time mean sample value (0 when empty).
func (d *Digest) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// EWMA returns the exponentially weighted moving average of the sample
// values (0 until the first sample, which seeds it).
func (d *Digest) EWMA() float64 { return d.ewma }

// span returns the virtual time the live ring covers as of now.
func (d *Digest) span(now sim.Time) sim.Time {
	if !d.opened {
		return 0
	}
	covered := now - (d.start - sim.Time(d.filled)*d.window)
	if oldest := now - d.firstAt; oldest < covered {
		covered = oldest
	}
	return covered
}

// Rate returns the recent event rate in samples per second: the events in
// the live ring over the virtual time it covers. Idle periods inside the
// ring pull the rate down; history older than the ring has aged out.
func (d *Digest) Rate(now sim.Time) float64 {
	d.advance2(now)
	var n int64
	for i := range d.ring {
		n += d.ring[i].count
	}
	sp := d.span(now)
	if sp <= 0 {
		if n > 0 {
			return float64(n) / d.window.Seconds()
		}
		return 0
	}
	return float64(n) / sp.Seconds()
}

// RecentMean returns the mean sample value over the live ring (0 when the
// ring holds no samples) — the windowed counterpart of Mean, used where a
// policy must track the current regime rather than the whole run (e.g.
// the adaptive coalescing window's inter-arrival estimate).
func (d *Digest) RecentMean(now sim.Time) float64 {
	d.advance2(now)
	var n, sum int64
	for i := range d.ring {
		n += d.ring[i].count
		sum += d.ring[i].sum
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Quantile returns the q-quantile over the live ring by scanning the
// windows' bucket counts together — no merge allocation, O(buckets×ring).
func (d *Digest) Quantile(now sim.Time, q float64) int64 {
	d.advance2(now)
	var total int64
	for i := range d.ring {
		total += d.ring[i].sk.count
	}
	if total == 0 {
		return 0
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen int64
	for b := 0; b < nBuckets; b++ {
		for i := range d.ring {
			seen += int64(d.ring[i].sk.buckets[b])
		}
		if seen >= target {
			return valueOf(b)
		}
	}
	return valueOf(nBuckets - 1)
}

// advance2 rotates windows on a read path (reads see time move even when
// no sample arrived since).
func (d *Digest) advance2(now sim.Time) {
	if d.opened && now >= d.start+d.window {
		d.advance(now)
	}
}

// Drifts returns the regime shifts flagged so far.
func (d *Digest) Drifts() int64 { return d.drift.drifts }

// LastDriftAt returns the virtual instant of the most recent flagged
// shift (0 when none).
func (d *Digest) LastDriftAt() sim.Time { return d.drift.lastDriftAt }
