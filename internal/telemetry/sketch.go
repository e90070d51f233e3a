// Package telemetry is the simulator's streaming-metrics subsystem: fixed-
// size quantile sketches folded into ring-buffered windowed digests. It
// replaces the bespoke per-policy EWMAs that grew alongside each adaptive
// mechanism (the G2 offload threshold, load-aware placement's queueing-
// delay model, interrupt-coalescing windows) with one signal plane:
// sources record raw events (occupancies, latencies, inter-arrival gaps),
// digests maintain count/rate, mean, EWMA, and p50/p95/p99 views over
// tumbling virtual-time windows, and every policy reads the same views.
//
// A recorder that runs on the simulation's goroutine records straight
// into a digest (Hub.Record), so every view is current the moment its
// sample is recorded. Digests close windows as samples and reads move
// them forward, and a view's value never depends on when or how often it
// was read. Shards keep the shard-local/periodic-merge shape BriskStream
// uses for per-core statistics: a recording is an array write into a
// shard-local buffer, merged into the digests in timestamp order when the
// buffer fills or at Hub.Sync.
package telemetry

import "math/bits"

// Sketch layout: values are bucketed by a base-2 logarithm with subBits
// bits of linear sub-bucket resolution per octave, the fixed-size
// log-histogram shape DDSketch/HDR-style streaming quantile estimators
// use. Relative quantile error is bounded by half a sub-bucket:
// 2^-subBits/2 ≈ 6%. Counts merge by addition, so shard merges are
// order-invariant and deterministic.
const (
	subBits    = 3
	subBuckets = 1 << subBits

	// nBuckets covers values up to ~2^40 ns (≈18 virtual minutes) —
	// far beyond any latency or gap a simulated run produces; larger
	// values clamp into the top bucket.
	nBuckets = (40-subBits)*subBuckets + subBuckets
)

// Sketch is a fixed-size log-bucketed histogram over non-negative int64
// values (nanosecond latencies, per-mille occupancies, byte counts).
// The zero value is ready to use; Add and Quantile never allocate.
type Sketch struct {
	buckets [nBuckets]uint32
	count   int64
	max     int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	idx := (exp-subBits)*subBuckets + int(v>>(uint(exp-subBits)))
	if idx >= nBuckets {
		return nBuckets - 1
	}
	return idx
}

// valueOf returns the midpoint of a bucket (its exact value below
// subBuckets, where buckets are single integers).
func valueOf(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	block := (idx - subBuckets) / subBuckets
	mant := subBuckets + (idx-subBuckets)%subBuckets
	lower := int64(mant) << uint(block)
	return lower + (int64(1)<<uint(block))/2
}

// Add records one value.
func (s *Sketch) Add(v int64) {
	s.buckets[bucketOf(v)]++
	s.count++
	if v > s.max {
		s.max = v
	}
}

// Count returns the number of recorded values.
func (s *Sketch) Count() int64 { return s.count }

// Max returns the largest value recorded, exactly (quantiles are bucket
// midpoints, but the worst observation — the number an SLO report quotes
// as "max latency" — must not be rounded). Zero when empty.
func (s *Sketch) Max() int64 { return s.max }

// Merge adds every count of other into s. Addition is commutative, so the
// merged sketch is independent of shard order — the property the shard-
// merge determinism tests assert.
func (s *Sketch) Merge(other *Sketch) {
	for i, c := range other.buckets {
		s.buckets[i] += c
	}
	s.count += other.count
	if other.max > s.max {
		s.max = other.max
	}
}

// Reset clears the sketch for window reuse without releasing its storage.
func (s *Sketch) Reset() {
	s.buckets = [nBuckets]uint32{}
	s.count = 0
	s.max = 0
}

// Quantile returns the nearest-rank q-quantile (q in [0,1]) as the
// matched bucket's midpoint, or 0 when the sketch is empty. An upper
// quantile is found scanning down from the bucket of the maximum, which
// for a tail quantile such as the p99 every closed window takes is a
// few buckets instead of most of the ~300.
func (s *Sketch) Quantile(q float64) int64 {
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
	if q >= 0.5 {
		// The target-th smallest value is the (count-target+1)-th
		// largest; no bucket above the maximum's holds a value.
		need, seen := s.count-target+1, int64(0)
		for i := bucketOf(s.max); i > 0; i-- {
			if seen += int64(s.buckets[i]); seen >= need {
				return valueOf(i)
			}
		}
		return valueOf(0)
	}
	var seen int64
	for i, c := range s.buckets {
		seen += int64(c)
		if seen >= target {
			return valueOf(i)
		}
	}
	return valueOf(nBuckets - 1)
}
