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

func (w *windowAgg) reset() {
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
	ewma    EWMA
	firstAt sim.Time

	// Drift state (see closeWindow).
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
// windows as needed. Samples are merged from shard buffers in submission
// order, so a sample's instant is never ahead of the engine clock; a
// sample landing after its window closed (buffered across a boundary)
// joins the current window — standard late-data policy for tumbling
// windows.
func (d *Digest) Record(at sim.Time, v int64) {
	if !d.opened {
		d.opened = true
		d.start = at
		d.firstAt = at
	}
	d.advance(at)
	w := &d.ring[d.cur]
	w.count++
	w.sum += v
	w.sk.Add(v)
	d.count++
	d.sum += v
	d.ewma.Add(v)
}

// EWMA is the exponentially weighted moving average a Digest keeps,
// seeded by the first sample and smoothed by ewmaAlpha after it. The zero
// value is empty. A recorder that folds a stream's samples into its own
// EWMA in recording order holds the value the stream's digest reaches once
// those samples merge, without waiting for the merge.
type EWMA struct {
	v   float64
	set bool
}

// Add folds one sample into the average.
func (a *EWMA) Add(v int64) {
	if !a.set {
		a.v, a.set = float64(v), true
		return
	}
	a.v += ewmaAlpha * (float64(v) - a.v)
}

// Value returns the average, 0 before the first sample.
func (a *EWMA) Value() float64 { return a.v }

// advance rotates the ring until at falls inside the current window. A gap
// longer than the whole ring fast-forwards: the intervening windows were
// empty and carry no information worth closing one by one.
func (d *Digest) advance(at sim.Time) {
	if gap := at - d.start; gap >= sim.Time(ringWindows)*d.window {
		skip := gap / d.window
		d.start += skip * d.window
		for i := range d.ring {
			d.ring[i].reset()
		}
		d.filled = 0
		// The stream went idle for the whole ring; the old baseline
		// describes a regime that ended, so the next closed window
		// re-seeds it.
		d.baseSet = false
		d.shiftRun = 0
		return
	}
	for at >= d.start+d.window {
		d.closeWindow(d.start + d.window)
		d.cur = (d.cur + 1) % ringWindows
		d.ring[d.cur].reset()
		d.start += d.window
		if d.filled < ringWindows-1 {
			d.filled++
		}
	}
}

// closeWindow runs the drift detector over the window that just ended:
// its event rate and p99 are compared against smoothed baselines, and
// driftSustain consecutive windows deviating by more than driftFactor
// flag one regime shift. The baseline only absorbs unshifted windows, so
// a genuine new regime keeps deviating until flagged — then the baseline
// snaps to it and the detector re-arms for the next shift.
func (d *Digest) closeWindow(endAt sim.Time) {
	w := &d.ring[d.cur]
	rate := float64(w.count) / d.window.Seconds()
	var p99 int64
	if w.count > 0 {
		p99 = w.sk.Quantile(0.99)
	}

	if !d.baseSet {
		if w.count >= driftMinCount {
			d.baseRate, d.baseP99, d.baseSet = rate, float64(p99), true
		}
		return
	}
	shifted := false
	baseCount := d.baseRate * d.window.Seconds()
	if w.count >= driftMinCount || baseCount >= driftMinCount {
		if rate > driftFactor*d.baseRate || rate < d.baseRate/driftFactor {
			shifted = true
		}
	}
	if w.count >= driftMinCount && d.baseP99 > 0 {
		if f := float64(p99); f > driftFactor*d.baseP99 || f < d.baseP99/driftFactor {
			shifted = true
		}
	}
	if shifted {
		d.shiftRun++
		if d.shiftRun >= driftSustain {
			d.drifts++
			d.lastDriftAt = endAt
			d.shiftRun = 0
			// The new regime becomes the baseline.
			d.baseRate, d.baseP99 = rate, float64(p99)
			if w.count < driftMinCount {
				d.baseSet = false
			}
		}
		return
	}
	d.shiftRun = 0
	d.baseRate += baselineAlpha * (rate - d.baseRate)
	if w.count >= driftMinCount {
		d.baseP99 += baselineAlpha * (float64(p99) - d.baseP99)
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
func (d *Digest) EWMA() float64 { return d.ewma.Value() }

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
func (d *Digest) Drifts() int64 { return d.drifts }

// LastDriftAt returns the virtual instant of the most recent flagged
// shift (0 when none).
func (d *Digest) LastDriftAt() sim.Time { return d.lastDriftAt }
