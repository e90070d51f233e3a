package telemetry

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"dsasim/internal/sim"
)

// exactQuantile is the reference nearest-rank quantile.
func exactQuantile(vals []int64, q float64) int64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// TestSketchQuantileAccuracy records latency-like traces into a sketch and
// checks p50/p95/p99 against the exact nearest-rank values. The log-bucket
// layout bounds relative error at half a sub-bucket (2^-3/2 ≈ 6%); allow
// 8% for rank rounding at the tails.
func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	traces := map[string][]int64{}

	// Exponential inter-arrival-style trace around 2µs.
	exp := make([]int64, 5000)
	for i := range exp {
		exp[i] = int64(rng.ExpFloat64() * 2000)
	}
	traces["exponential"] = exp

	// Bimodal latency trace: fast path ~1.2µs, slow tail ~40µs.
	bi := make([]int64, 5000)
	for i := range bi {
		if rng.Float64() < 0.9 {
			bi[i] = 1000 + int64(rng.Intn(400))
		} else {
			bi[i] = 30000 + int64(rng.Intn(20000))
		}
	}
	traces["bimodal"] = bi

	// Uniform small values exercising the exact low buckets.
	uni := make([]int64, 2000)
	for i := range uni {
		uni[i] = int64(rng.Intn(64))
	}
	traces["uniform-small"] = uni

	for name, trace := range traces {
		var sk Sketch
		for _, v := range trace {
			sk.Add(v)
		}
		if sk.Count() != int64(len(trace)) {
			t.Fatalf("%s: count = %d, want %d", name, sk.Count(), len(trace))
		}
		for _, q := range []float64{0.50, 0.95, 0.99} {
			got := sk.Quantile(q)
			want := exactQuantile(trace, q)
			tol := float64(want) * 0.08
			if tol < 1 {
				tol = 1
			}
			if diff := float64(got - want); diff > tol || diff < -tol {
				t.Errorf("%s: p%.0f = %d, exact %d (tolerance %.0f)", name, q*100, got, want, tol)
			}
		}
	}
}

// TestSketchMergeOrderInvariant splits one trace across shard layouts and
// checks the merged sketch is identical regardless of how samples were
// sharded or in which order the shards merged.
func TestSketchMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trace := make([]int64, 4096)
	for i := range trace {
		trace[i] = int64(rng.ExpFloat64() * 5000)
	}

	var whole Sketch
	for _, v := range trace {
		whole.Add(v)
	}

	for _, nShards := range []int{2, 3, 7} {
		shards := make([]Sketch, nShards)
		for i, v := range trace {
			shards[i%nShards].Add(v)
		}
		// Merge in reverse registration order to stress order-invariance.
		var merged Sketch
		for i := nShards - 1; i >= 0; i-- {
			merged.Merge(&shards[i])
		}
		if merged != whole {
			t.Fatalf("%d shards: merged sketch differs from whole-trace sketch", nShards)
		}
	}
}

// TestHubShardMergeDeterminism records the same event history through
// different shard layouts and checks every digest view agrees — the
// determinism the commutative bucket merge buys.
func TestHubShardMergeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type ev struct {
		at sim.Time
		v  int64
	}
	events := make([]ev, 3000)
	at := sim.Time(0)
	for i := range events {
		at += sim.Time(rng.Intn(200)) * time.Nanosecond
		events[i] = ev{at: at, v: int64(rng.ExpFloat64() * 3000)}
	}
	end := at + time.Microsecond

	run := func(nShards int) (int64, float64, int64, int64, float64) {
		h := NewHub(0)
		id := h.Stream("lat")
		shards := make([]*Shard, nShards)
		for i := range shards {
			shards[i] = h.NewShard()
		}
		for i, e := range events {
			shards[i%nShards].Record(id, e.at, e.v)
		}
		h.Sync(end)
		d := h.Digest(id)
		return d.Count(), d.Mean(), d.Quantile(end, 0.50), d.Quantile(end, 0.99), d.Rate(end)
	}

	c1, m1, p50a, p99a, r1 := run(1)
	if c1 != int64(len(events)) {
		t.Fatalf("count = %d, want %d", c1, len(events))
	}
	for _, n := range []int{2, 5} {
		c, m, p50, p99, r := run(n)
		if c != c1 || m != m1 || p50 != p50a || p99 != p99a || r != r1 {
			t.Errorf("%d shards: views diverge from 1 shard: count %d/%d mean %g/%g p50 %d/%d p99 %d/%d rate %g/%g",
				n, c, c1, m, m1, p50, p50a, p99, p99a, r, r1)
		}
	}
}

// TestShardAggregationDeterminism is the sharded-submission-plane guarantee:
// N shards recording one interleaved event history merge into exactly the
// views a single shard recording the same history sequentially produces —
// including the order-sensitive EWMA, which the timestamp-ordered k-way
// merge makes shard-count-invariant (timestamps are strictly increasing, so
// merge order equals recording order whatever shard each sample landed on).
// Syncs happen mid-history, at different points per layout, to prove the
// merged state does not depend on when aggregation ran either.
func TestShardAggregationDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type ev struct {
		at sim.Time
		v  int64
	}
	events := make([]ev, 3000)
	at := sim.Time(0)
	for i := range events {
		at += sim.Time(1+rng.Intn(200)) * time.Nanosecond
		events[i] = ev{at: at, v: int64(rng.ExpFloat64() * 3000)}
	}
	end := at + time.Microsecond

	type views struct {
		count    int64
		mean     float64
		ewma     float64
		p50, p99 int64
		rate     float64
	}
	run := func(nShards, syncEvery int) views {
		h := NewHub(0)
		id := h.Stream("lat")
		shards := make([]*Shard, nShards)
		for i := range shards {
			shards[i] = h.NewShard()
		}
		for i, e := range events {
			shards[i%nShards].Record(id, e.at, e.v)
			if (i+1)%syncEvery == 0 {
				h.Sync(e.at)
			}
		}
		h.Sync(end)
		d := h.Digest(id)
		return views{d.Count(), d.Mean(), d.EWMA(), d.Quantile(end, 0.50), d.Quantile(end, 0.99), d.Rate(end)}
	}

	want := run(1, 40)
	if want.count != int64(len(events)) {
		t.Fatalf("count = %d, want %d", want.count, len(events))
	}
	for _, tc := range []struct{ shards, syncEvery int }{{2, 40}, {5, 40}, {5, 17}, {8, 61}} {
		if got := run(tc.shards, tc.syncEvery); got != want {
			t.Errorf("%d shards (sync every %d): views diverge from sequential: got %+v want %+v",
				tc.shards, tc.syncEvery, got, want)
		}
	}
}

// TestHubMergeMatchesFullScan checks the dirty-shard merge and the skipped
// rotation pass against a reference that scans every registered shard on
// each merge and rotates every digest on each Sync. 96 shards are
// registered and a handful record, several at equal timestamps (the
// registration-order tie-break), one overflows its buffer mid-interval,
// one stream opens late, and idle gaps span single windows and the whole
// ring. One more stream, opened late too, is recorded through Hub.Record
// alone. After every Sync each digest's full state must equal the
// reference's.
func TestHubMergeMatchesFullScan(t *testing.T) {
	const nShards, nStreams = 96, 5
	h := NewHub(0)
	ref := make([]*Digest, nStreams+1) // the last is the direct stream
	for i := range ref {
		h.Stream("s")
		ref[i] = NewDigest(h.Window())
	}
	shards := make([]*Shard, nShards)
	for i := range shards {
		shards[i] = h.NewShard()
	}
	refBuf := make([][]sample, nShards)

	record := func(si int, id ID, at sim.Time, v int64) {
		shards[si].Record(id, at, v)
		refBuf[si] = append(refBuf[si], sample{id: id, at: at, v: v})
		if len(refBuf[si]) == shardBuf { // the overflow flush, in recording order
			for _, b := range refBuf[si] {
				ref[b.id].Record(b.at, b.v)
			}
			refBuf[si] = refBuf[si][:0]
		}
	}
	refSync := func(now sim.Time) {
		for {
			best := -1
			for i := range refBuf {
				if len(refBuf[i]) > 0 && (best < 0 || refBuf[i][0].at < refBuf[best][0].at) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			b := refBuf[best][0]
			refBuf[best] = refBuf[best][1:]
			ref[b.id].Record(b.at, b.v)
		}
		for i := range refBuf {
			refBuf[i] = refBuf[i][:0]
		}
		for _, d := range ref {
			d.advance2(now)
		}
	}

	rng := rand.New(rand.NewSource(15))
	active := []int{3, 17, 40, 41, 95}
	at := sim.Time(0)
	samples := 0
	for step := 0; step < 4000; step++ {
		switch {
		case step == 1500:
			at += 120 * time.Microsecond // idle across a few windows
		case step == 2500:
			at += 900 * time.Microsecond // idle past the whole ring
		default:
			at += sim.Time(1+rng.Intn(300)) * time.Nanosecond
		}
		streams := nStreams - 1
		if step > 3000 {
			streams = nStreams // the last stream opens late
		}
		// One to three active shards record at the same instant.
		for k := 1 + rng.Intn(3); k > 0; k-- {
			si := active[rng.Intn(len(active))]
			record(si, ID(rng.Intn(streams)), at, int64(rng.ExpFloat64()*3000))
			samples++
		}
		if step > 2200 && rng.Intn(3) == 0 {
			v := int64(rng.ExpFloat64() * 3000)
			h.Record(nStreams, at, v)
			ref[nStreams].Record(at, v)
			samples++
		}
		if step == 2000 {
			// A burst that overflows one shard's buffer between merges.
			for k := 0; k < shardBuf+6; k++ {
				record(40, ID(k%streams), at, int64(k))
				samples++
			}
		}
		if step%7 == 0 {
			h.Sync(at)
			refSync(at)
			for i, d := range ref {
				if got := h.Digest(ID(i)); *got != *d {
					t.Fatalf("step %d: stream %d diverges from the full-scan merge", step, i)
				}
			}
		}
	}
	end := at + time.Millisecond
	h.Sync(end)
	refSync(end)
	total := int64(0)
	for i, d := range ref {
		got := h.Digest(ID(i))
		if *got != *d {
			t.Fatalf("final: stream %d diverges from the full-scan merge", i)
		}
		total += got.Count()
	}
	if total != int64(samples) {
		t.Fatalf("merged %d samples, recorded %d", total, samples)
	}
}

// BenchmarkHubSyncIdleShards times one Sync merging 16 samples from each
// of 4 recording shards while 92 more registered shards sit idle, the
// shape of a churned fleet run whose retired tenants keep their shards.
func BenchmarkHubSyncIdleShards(b *testing.B) {
	const nShards, nDirty, perShard = 96, 4, 16
	h := NewHub(0)
	ids := make([]ID, nDirty)
	for i := range ids {
		ids[i] = h.Stream("s")
	}
	shards := make([]*Shard, nShards)
	for i := range shards {
		shards[i] = h.NewShard()
	}
	var at sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < nDirty; k++ {
			sh := shards[k*nShards/nDirty]
			for j := 0; j < perShard; j++ {
				at += 100
				sh.Record(ids[k], at, int64(j))
			}
		}
		h.Sync(at)
	}
}

// TestDigestWindowRotationAndRate checks that quantile views age out old
// windows and that Rate reflects the live ring, not all-time history.
func TestDigestWindowRotationAndRate(t *testing.T) {
	d := NewDigest(10 * time.Microsecond)

	// Phase 1: slow, large values for 5 windows.
	at := sim.Time(0)
	for i := 0; i < 50; i++ {
		d.Record(at, 40000)
		at += time.Microsecond
	}
	if p99 := d.Quantile(at, 0.99); p99 < 30000 {
		t.Fatalf("phase-1 p99 = %d, want ≈40000", p99)
	}

	// Phase 2: fast, small values long enough to rotate phase 1 out of
	// the 8-window ring entirely.
	for i := 0; i < 1000; i++ {
		d.Record(at, 1000)
		at += 100 * time.Nanosecond
	}
	if p99 := d.Quantile(at, 0.99); p99 > 2000 {
		t.Errorf("after rotation p99 = %d, want ≈1000 (old windows must age out)", p99)
	}
	if rate := d.Rate(at); rate < 5e6 {
		t.Errorf("rate = %g/s, want ≈1e7 (live ring, not all-time)", rate)
	}
	if d.Count() != 1050 {
		t.Errorf("all-time count = %d, want 1050", d.Count())
	}

	// A long idle gap fast-forwards and empties the ring.
	at += sim.Time(100) * 10 * time.Microsecond
	if rm := d.RecentMean(at); rm != 0 {
		t.Errorf("recent mean after idle gap = %g, want 0", rm)
	}
}

// TestDigestDriftDetection drives a sustained rate/p99 regime shift and
// checks exactly the shifts are flagged: none within a stable regime, one
// per sustained change, and single-window spikes absorbed.
func TestDigestDriftDetection(t *testing.T) {
	w := 10 * time.Microsecond
	d := NewDigest(w)

	record := func(at *sim.Time, n int, gap sim.Time, v int64) {
		for i := 0; i < n; i++ {
			d.Record(*at, v)
			*at += gap
		}
	}

	at := sim.Time(0)
	// Stable regime: ~20 events/window at 2µs values, 30 windows.
	record(&at, 600, 500*time.Nanosecond, 2000)
	if d.Drifts() != 0 {
		t.Fatalf("stable regime flagged %d drifts, want 0", d.Drifts())
	}

	// Regime shift: 4× the rate, 8× the value, sustained.
	record(&at, 2400, 125*time.Nanosecond, 16000)
	if d.Drifts() != 1 {
		t.Fatalf("sustained shift flagged %d drifts, want 1", d.Drifts())
	}
	if d.LastDriftAt() == 0 {
		t.Fatalf("LastDriftAt not set")
	}

	// Continuing in the new regime must not re-flag.
	record(&at, 2400, 125*time.Nanosecond, 16000)
	if d.Drifts() != 1 {
		t.Errorf("steady new regime flagged %d drifts, want still 1", d.Drifts())
	}

	// Shift back down — second drift.
	record(&at, 600, 500*time.Nanosecond, 2000)
	if d.Drifts() != 2 {
		t.Errorf("return shift flagged %d drifts, want 2", d.Drifts())
	}
}

// TestDigestSpikeAbsorbed checks a single anomalous window does not flag.
func TestDigestSpikeAbsorbed(t *testing.T) {
	w := 10 * time.Microsecond
	d := NewDigest(w)
	at := sim.Time(0)
	// Stable baseline.
	for i := 0; i < 400; i++ {
		d.Record(at, 2000)
		at += 500 * time.Nanosecond
	}
	// One spiky window (one window's worth at 8× rate), then back to stable.
	for i := 0; i < 80; i++ {
		d.Record(at, 2000)
		at += 125 * time.Nanosecond
	}
	for i := 0; i < 400; i++ {
		d.Record(at, 2000)
		at += 500 * time.Nanosecond
	}
	if d.Drifts() != 0 {
		t.Errorf("single-window spike flagged %d drifts, want 0 (sustain=%d)", d.Drifts(), driftSustain)
	}
}

// FuzzDigestReadSchedule checks that a digest's views do not depend on
// when it is read. Two digests record the same samples: one is read at
// random instants between them, the other at every window boundary, which
// closes each window on its own. Gaps range from a fraction of a window to
// far past the whole ring, and values from flat to sharply shifting, so
// the drift detector flags, re-arms and decays across idle stretches.
// Every view must agree at every read and at the end.
func FuzzDigestReadSchedule(f *testing.F) {
	// Each sample is 3 bytes: gap, value, and a read flag with its offset.
	f.Add([]byte{10, 50, 0, 10, 50, 0, 250, 200, 0x85, 10, 50, 0x80})
	busy := make([]byte, 0, 3*120)
	for i := 0; i < 100; i++ {
		busy = append(busy, 2, byte(40+i%3), 0)
	}
	busy = append(busy, 240, 60, 0, 3, 60, 0x90, 255, 90, 0, 1, 200, 0xF0)
	f.Add(busy)
	f.Fuzz(func(t *testing.T, data []byte) {
		const w = 1000 // window, ns
		if len(data) > 3*100 {
			data = data[:3*100] // a long gap costs the stepped digest ~1000 reads
		}
		read, stepped := NewDigest(w), NewDigest(w)
		var at, next sim.Time // next: the stepped digest's next boundary
		step := func(to sim.Time) {
			for ; next != 0 && next <= to; next += w {
				stepped.RecentMean(next)
			}
		}
		check := func(now sim.Time) {
			t.Helper()
			step(now)
			for _, q := range []float64{0.5, 0.99} {
				if a, b := read.Quantile(now, q), stepped.Quantile(now, q); a != b {
					t.Fatalf("at %d: q%.2f %d, stepped %d", now, q, a, b)
				}
			}
			if a, b := read.Rate(now), stepped.Rate(now); a != b {
				t.Fatalf("at %d: rate %g, stepped %g", now, a, b)
			}
			if a, b := read.RecentMean(now), stepped.RecentMean(now); a != b {
				t.Fatalf("at %d: recent mean %g, stepped %g", now, a, b)
			}
			if read.EWMA() != stepped.EWMA() || read.Drifts() != stepped.Drifts() || read.LastDriftAt() != stepped.LastDriftAt() {
				t.Fatalf("at %d: ewma %g drifts %d last %d, stepped %g %d %d", now,
					read.EWMA(), read.Drifts(), read.LastDriftAt(), stepped.EWMA(), stepped.Drifts(), stepped.LastDriftAt())
			}
		}
		for i := 0; i+3 <= len(data); i += 3 {
			g, v, flags := data[i], data[i+1], data[i+2]
			gap := sim.Time(g) * 8 // up to ~1.8 windows
			if g >= 224 {
				gap = sim.Time(g-223) * 37 * w // 37 to 1184 windows
			}
			if flags&0x80 != 0 && next != 0 {
				check(at + gap*sim.Time(flags>>4&7)/8)
			}
			at += gap
			val := int64(v) << (flags & 15)
			step(at)
			read.Record(at, val)
			stepped.Record(at, val)
			if next == 0 {
				next = at + w
			}
		}
		if next != 0 {
			check(at + 5000*w)
		}
	})
}

// TestTelemetryZeroAlloc asserts the hot paths — shard and hub Record, hub
// Sync, and every digest read view — never allocate.
func TestTelemetryZeroAlloc(t *testing.T) {
	h := NewHub(0)
	id := h.Stream("lat")
	s := h.NewShard()
	at := sim.Time(0)

	if n := testing.AllocsPerRun(1000, func() {
		at += 100 * time.Nanosecond
		s.Record(id, at, 1500)
	}); n != 0 {
		t.Errorf("Shard.Record allocates %.1f/op, want 0", n)
	}

	direct := h.Stream("direct")
	if n := testing.AllocsPerRun(1000, func() {
		at += 100 * time.Nanosecond
		h.Record(direct, at, 1500)
	}); n != 0 {
		t.Errorf("Hub.Record allocates %.1f/op, want 0", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		at += time.Microsecond
		s.Record(id, at, 1500)
		h.Sync(at)
	}); n != 0 {
		t.Errorf("Hub.Sync allocates %.1f/op, want 0", n)
	}

	d := h.Digest(id)
	if n := testing.AllocsPerRun(200, func() {
		at += time.Microsecond
		_ = d.EWMA()
		_ = d.Mean()
		_ = d.Rate(at)
		_ = d.RecentMean(at)
		_ = d.Quantile(at, 0.50)
		_ = d.Quantile(at, 0.99)
		_ = d.Drifts()
	}); n != 0 {
		t.Errorf("digest read views allocate %.1f/op, want 0", n)
	}
}

// TestSketchMax pins the exact-maximum tracking: Max returns the largest
// value ever added — exactly, not the log-bucket midpoint Quantile would
// round it to — and survives Merge and Reset.
func TestSketchMax(t *testing.T) {
	var sk Sketch
	if sk.Max() != 0 {
		t.Fatalf("empty sketch Max = %d, want 0", sk.Max())
	}
	for _, v := range []int64{100, 99_999, 7} {
		sk.Add(v)
	}
	if sk.Max() != 99_999 {
		t.Fatalf("Max = %d, want exact 99999", sk.Max())
	}

	var other Sketch
	other.Add(1_234_567)
	sk.Merge(&other)
	if sk.Max() != 1_234_567 {
		t.Fatalf("merged Max = %d, want 1234567", sk.Max())
	}
	// Merging a smaller-max sketch must not lower it.
	var small Sketch
	small.Add(3)
	sk.Merge(&small)
	if sk.Max() != 1_234_567 {
		t.Fatalf("Max lowered by smaller merge: %d", sk.Max())
	}

	sk.Reset()
	if sk.Max() != 0 || sk.Count() != 0 {
		t.Fatalf("Reset left max=%d count=%d", sk.Max(), sk.Count())
	}
}

// upwardQuantile is the nearest-rank bucket scan from bucket 0 that
// Sketch.Quantile makes for lower quantiles, the reference its downward
// scan for upper ones must equal.
func upwardQuantile(s *Sketch, q float64) int64 {
	if s.count == 0 {
		return 0
	}
	target := int64(q*float64(s.count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > s.count {
		target = s.count
	}
	var seen int64
	for i, c := range s.buckets {
		if seen += int64(c); seen >= target {
			return valueOf(i)
		}
	}
	return valueOf(nBuckets - 1)
}

// FuzzSketchQuantileScan pins Sketch.Quantile to the upward scan at every
// quantile, over sketches built by Add and Merge from random values:
// exact small buckets, negatives clamped to 0, values past the top
// bucket, and a maximum alone in its bucket.
func FuzzSketchQuantileScan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x80, 0x81, 7, 0x40, 0x90, 3, 0xC0, 0x7F, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		var sk, other Sketch
		for len(data) >= 3 {
			// Value: a random octave and mantissa; the top bit of the
			// third byte records it into the sketch merged in at the end.
			v := int64(data[1])<<(data[0]%48) | int64(data[2]&0x0F)
			if data[0]%16 == 15 {
				v = -v
			}
			if data[2]&0x80 != 0 {
				other.Add(v)
			} else {
				sk.Add(v)
			}
			data = data[3:]
		}
		sk.Merge(&other)
		for i := 0; i <= 1000; i++ {
			q := float64(i) / 1000
			if got, want := sk.Quantile(q), upwardQuantile(&sk, q); got != want {
				t.Fatalf("q%.3f over %d values (max %d): %d, upward scan %d", q, sk.Count(), sk.Max(), got, want)
			}
		}
	})
}
