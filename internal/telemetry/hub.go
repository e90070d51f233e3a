package telemetry

import (
	"fmt"
	"math"

	"dsasim/internal/sim"
)

// ID names one registered stream within a Hub.
type ID int

// shardBuf is the shard-local buffer depth. 64 samples keeps the common
// case (a policy read every few microseconds draining a handful of
// completions) entirely within one flush, while bounding how stale a
// digest can be to one buffer's worth of events between reads.
const shardBuf = 64

// sample is one buffered recording: which stream, when, what value.
type sample struct {
	id ID
	at sim.Time
	v  int64
}

// Hub owns the registered streams and their digests. Streams are created
// up front (Stream), recorded into directly (Record) or through Shards,
// and read through Digest views. Sync merges every shard's buffered
// samples into the digests in global timestamp order (ties broken by
// shard registration order), so a given recording history always merges
// the same way regardless of which shard recorded what or when reads
// happen — the order-sensitive views (EWMA) are as deterministic as the
// commutative ones.
type Hub struct {
	window  sim.Time
	names   []string
	digests []*Digest
	shards  []*Shard

	// dirty lists the shards that recorded since the last merge, so the
	// merge costs in proportion to the buffered samples rather than to
	// every shard ever registered (churned recorders keep theirs).
	dirty []*Shard

	// nextRoll is a lower bound on every opened digest's next window
	// boundary: before it, Sync's rotation pass would only make no-op
	// advance2 calls, so it is skipped. A digest's boundary never moves
	// earlier, so the bound is lowered only where a sample opens a digest
	// (Hub.noteOpen) and recomputed after each rotation pass. Hub digests
	// must therefore be recorded into through the hub or its shards only.
	nextRoll sim.Time
}

// NewHub returns a hub whose digests rotate on the given window span
// (DefaultWindow when non-positive).
func NewHub(window sim.Time) *Hub {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Hub{window: window}
}

// Window returns the tumbling-window span the hub's digests rotate on.
func (h *Hub) Window() sim.Time { return h.window }

// Stream registers a named stream and returns its ID. Registration
// allocates; it happens at topology-build time, never on the hot path.
func (h *Hub) Stream(name string) ID {
	h.names = append(h.names, name)
	h.digests = append(h.digests, NewDigest(h.window))
	return ID(len(h.digests) - 1)
}

// Name returns the stream's registered name.
func (h *Hub) Name(id ID) string { return h.names[id] }

// Streams returns the number of registered streams.
func (h *Hub) Streams() int { return len(h.digests) }

// Digest returns the stream's digest. It holds every sample recorded
// through Record; shard samples join it at the next Sync or buffer flush.
func (h *Hub) Digest(id ID) *Digest {
	if int(id) < 0 || int(id) >= len(h.digests) {
		panic(fmt.Sprintf("telemetry: unknown stream id %d", id))
	}
	return h.digests[id]
}

// Record folds one sample straight into the stream's digest: the
// recording path for a caller that shares the hub's goroutine, which
// needs no buffering and leaves nothing for a read to merge first.
// Samples must arrive in timestamp order. Allocation-free.
func (h *Hub) Record(id ID, at sim.Time, v int64) {
	d := h.digests[id]
	h.noteOpen(d, at)
	d.Record(at, v)
}

// NewShard returns a shard-local recorder bound to this hub. Each
// recording context (one per device plane, one per tenant) gets its own
// shard so the hot path is a couple of array writes with no sharing.
func (h *Hub) NewShard() *Shard {
	s := &Shard{h: h, idx: len(h.shards)}
	h.shards = append(h.shards, s)
	return s
}

// Sync merges every shard's buffered samples into the digests in global
// timestamp order and rotates windows up to now. It is the pull half of
// the shard-local/periodic-merge design: readers call it before reading
// views, instead of a wall-clock merge timer that would keep the event
// loop alive. Allocation-free.
func (h *Hub) Sync(now sim.Time) {
	h.merge()
	if now < h.nextRoll {
		return
	}
	next := sim.Time(math.MaxInt64)
	for _, d := range h.digests {
		d.advance2(now)
		if d.opened && d.start+d.window < next {
			next = d.start + d.window
		}
	}
	h.nextRoll = next
}

// merge is the k-way shard drain: repeatedly take the buffered sample with
// the smallest timestamp across the dirty shards (earliest-registered
// shard wins ties) and record it into its digest. With strictly increasing
// recording timestamps the merged order equals the global recording order
// whatever shard each sample landed on, which is what makes the
// order-sensitive EWMA view shard-count-invariant. Each scan over the
// shards holding samples finds the earliest head and the earliest head
// among the rest; the first shard then drains until its head no longer
// precedes that one, so a scan is paid per switch between shards rather
// than per sample. Allocation-free.
func (h *Hub) merge() {
	for {
		var best, next *Shard
		var bestAt, nextAt sim.Time
		for _, s := range h.dirty {
			if s.pos == s.n {
				continue
			}
			switch at := s.buf[s.pos].at; {
			case best == nil || at < bestAt || at == bestAt && s.idx < best.idx:
				next, nextAt = best, bestAt
				best, bestAt = s, at
			case next == nil || at < nextAt || at == nextAt && s.idx < next.idx:
				next, nextAt = s, at
			}
		}
		if best == nil {
			break
		}
		for best.pos < best.n {
			b := &best.buf[best.pos]
			if next != nil && (b.at > nextAt || b.at == nextAt && best.idx > next.idx) {
				break
			}
			best.pos++
			d := h.digests[b.id]
			h.noteOpen(d, b.at)
			d.Record(b.at, b.v)
		}
	}
	for _, s := range h.dirty {
		s.n, s.pos, s.dirty = 0, 0, false
	}
	h.dirty = h.dirty[:0]
}

// noteOpen lowers the rotation bound when a sample at instant at is about
// to open digest d, whose first window then ends at at+window.
func (h *Hub) noteOpen(d *Digest, at sim.Time) {
	if !d.opened && at+d.window < h.nextRoll {
		h.nextRoll = at + d.window
	}
}

// Shard is a shard-local recording buffer: Record appends into a fixed
// array, and the buffer merges into the hub's digests when it fills or at
// the next Sync. No locks and no allocations on the recording path; the
// only hub state it touches is the dirty list, once per merge interval.
// Shards batch merges per recorder (the per-core recording shape);
// Hub.Record is the unbuffered path.
type Shard struct {
	h     *Hub
	idx   int  // registration index, the merge's tie-break
	dirty bool // listed on h.dirty since the last merge
	n     int
	pos   int // merge cursor into buf, owned by Hub.merge
	buf   [shardBuf]sample
}

// Record buffers one sample for the stream. The first Record after a
// merge lists the shard on the hub's dirty list, an append that allocates
// only while the list grows to its high-water mark. Flushes inline when
// the buffer fills — the overflow fallback merges this shard's samples in
// recording order ahead of the next Sync (still allocation-free, since
// digests record in place).
func (s *Shard) Record(id ID, at sim.Time, v int64) {
	if !s.dirty {
		s.dirty = true
		s.h.dirty = append(s.h.dirty, s)
	}
	s.buf[s.n] = sample{id: id, at: at, v: v}
	s.n++
	if s.n == shardBuf {
		s.flush()
	}
}

// flush merges the buffered samples into the hub's digests in recording
// order (the single-shard overflow path; Sync uses the k-way merge).
func (s *Shard) flush() {
	for i := 0; i < s.n; i++ {
		b := &s.buf[i]
		d := s.h.digests[b.id]
		s.h.noteOpen(d, b.at)
		d.Record(b.at, b.v)
	}
	s.n, s.pos = 0, 0
}
