package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"dsasim/internal/sim"
)

// span is one traced call: host and virtual start/end, the span that
// caused it (0 for a rung's root), and the rung it ran in.
type span struct {
	id, parent int
	rung       int
	name       string
	hostStart  time.Duration // since the tracer's epoch
	hostEnd    time.Duration
	virtStart  sim.Time
	virtEnd    sim.Time
}

// spanRef identifies a begun span: its id, and its index in the stored
// spans or -1 when the rung's storage cap was reached (the call is still
// timed, so every traced call pays the same overhead).
type spanRef struct{ id, idx int }

// tracer keeps the ladder's spans in memory, capped per rung, until they
// are written out. A nil *tracer is the untraced pass: begin and end do
// nothing.
type tracer struct {
	epoch  time.Time
	spans  []span
	perCap int // spans stored per rung
	stored int // stored in the current rung
	rung   int
	root   spanRef
	nextID int
}

func newTracer(perRung int) *tracer {
	return &tracer{epoch: time.Now(), perCap: perRung}
}

// beginRung opens a rung's root span; its calls become its children.
func (t *tracer) beginRung(name string, rung int) {
	t.rung, t.stored = rung, 0
	t.spans = slices.Grow(t.spans, t.perCap)
	t.root = spanRef{}
	t.root = t.begin("ladder/"+name, spanRef{}, 0)
}

// endRung closes the rung's root span.
func (t *tracer) endRung() { t.end(t.root, 0) }

// begin opens a span under parent (the rung root when parent is zero) at
// virtual instant virt.
func (t *tracer) begin(name string, parent spanRef, virt sim.Time) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.epoch)
	t.nextID++
	if parent.id == 0 {
		parent = t.root
	}
	ref := spanRef{id: t.nextID, idx: -1}
	if t.stored < t.perCap {
		t.stored++
		ref.idx = len(t.spans)
		t.spans = append(t.spans, span{id: ref.id, parent: parent.id, rung: t.rung, name: name,
			hostStart: now, virtStart: virt})
	}
	return ref
}

// end closes a span at virtual instant virt.
func (t *tracer) end(ref spanRef, virt sim.Time) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	if ref.idx >= 0 {
		t.spans[ref.idx].hostEnd = now
		t.spans[ref.idx].virtEnd = virt
	}
}

// traceEvent is one Chrome trace-event "complete" event; ts and dur are
// host microseconds, one track (tid) per rung.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID          int   `json:"id"`
	Parent      int   `json:"parent"`
	VirtStartNs int64 `json:"virt_start_ns"`
	VirtEndNs   int64 `json:"virt_end_ns"`
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto).
func (t *tracer) write(path string) error {
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, traceEvent{
			Name: s.name, Cat: "ladder", Ph: "X",
			Ts:  float64(s.hostStart) / 1e3,
			Dur: float64(s.hostEnd-s.hostStart) / 1e3,
			Pid: 1, Tid: s.rung,
			Args: traceArgs{ID: s.id, Parent: s.parent, VirtStartNs: int64(s.virtStart), VirtEndNs: int64(s.virtEnd)},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
