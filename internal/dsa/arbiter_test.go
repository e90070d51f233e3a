package dsa

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// The group arbiter's contract for batch sub-descriptors (§3.4 F3): the
// children of a fetched batch queue on the WQ that accepted the batch and
// win engines at that WQ's priority, ahead of the WQ's own later entries
// but not ahead of a higher-priority WQ.

const (
	arbChildren  = 8
	arbChildSize = 64 << 10
	arbEngines   = 2
)

// arbiterRig builds one group of two engines with a priority-15 express
// WQ (WQs()[0]) and a priority-5 bulk WQ (WQs()[1]).
func arbiterRig(t *testing.T) *rig {
	t.Helper()
	return newRig(t, GroupConfig{
		Engines: arbEngines,
		WQs: []WQConfig{
			{Mode: Dedicated, Size: 16, Priority: 15},
			{Mode: Dedicated, Size: 16, Priority: 5},
		},
	})
}

// bulkBatch submits, at the current instant, a batch of arbChildren equal
// copies from src to dst on wq.
func (r *rig) bulkBatch(t *testing.T, wq *WQ, src, dst *mem.Buffer) *Completion {
	t.Helper()
	subs := make([]Descriptor, arbChildren)
	for i := range subs {
		off := int64(i) * arbChildSize
		subs[i] = Descriptor{Op: OpMemmove, Src: src.Addr(off), Dst: dst.Addr(off), Size: arbChildSize}
	}
	c, err := wq.Submit(Descriptor{Op: OpBatch, PASID: 1, Descs: subs})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// submitAt submits a 64-byte copy on wq at instant at into *c.
func (r *rig) submitAt(t *testing.T, at sim.Time, wq *WQ, c **Completion) {
	src, dst := r.alloc(64), r.alloc(64)
	r.e.At(at, func() {
		comp, err := wq.Submit(Descriptor{Op: OpMemmove, PASID: 1, Src: src.Addr(0), Dst: dst.Addr(0), Size: 64})
		if err != nil {
			t.Errorf("submit at %v: %v", at, err)
		}
		*c = comp
	})
}

// childTime returns the mean engine occupancy of one batch child: the
// interval between two engine releases while the children stream. The
// 64-byte copies run beside the children add a few ns to it.
func (r *rig) childTime() sim.Time {
	var busy sim.Time
	for _, eng := range r.dev.WQs()[0].Group().Engines {
		busy += eng.BusyTime()
	}
	return busy / arbChildren
}

// checkBatch fails unless the batch succeeded child by child and copied
// every byte.
func checkBatch(t *testing.T, batch *Completion, src, dst *mem.Buffer) {
	t.Helper()
	rec := batch.Record()
	if rec.Status != StatusSuccess || rec.Result != arbChildren {
		t.Fatalf("batch = %v with %d of %d children succeeded, want success", rec.Status, rec.Result, arbChildren)
	}
	for i, cr := range rec.Children {
		if cr.Status != StatusSuccess {
			t.Errorf("child %d = %+v, want success", i, cr)
		}
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Error("batch children did not copy every byte")
	}
}

// A priority-15 descriptor submitted while a priority-5 batch's children
// are queued dispatches at the next engine release, ahead of the children
// still queued. With the bulk WQ alone the children still dispatch before
// that WQ's later entries: an entry submitted behind them waits for every
// remaining round of children.
func TestBatchChildrenArbitrateAtWQPriority(t *testing.T) {
	us := sim.Time(time.Microsecond)
	// The batch is fetched and its first children are on both engines by
	// 1 µs; the rest wait.
	r := arbiterRig(t)
	src, dst := r.alloc(arbChildren*arbChildSize), r.alloc(arbChildren*arbChildSize)
	express, bulk := r.dev.WQs()[0], r.dev.WQs()[1]
	batch := r.bulkBatch(t, bulk, src, dst)
	var hi *Completion
	r.submitAt(t, us, express, &hi)
	r.e.Run()
	checkBatch(t, batch, src, dst)
	if tc := r.childTime(); hi.QueueTime() > tc {
		t.Errorf("express op queued %v behind a bulk batch, want at most one child's engine time %v", hi.QueueTime(), tc)
	}

	r = arbiterRig(t)
	src, dst = r.alloc(arbChildren*arbChildSize), r.alloc(arbChildren*arbChildSize)
	bulk = r.dev.WQs()[1]
	batch = r.bulkBatch(t, bulk, src, dst)
	var later *Completion
	r.submitAt(t, us, bulk, &later)
	r.e.Run()
	checkBatch(t, batch, src, dst)
	// The first round of children is on the engines when the entry
	// arrives; it waits out the remaining rounds.
	rounds := sim.Time(arbChildren/arbEngines - 1)
	if tc := r.childTime(); later.QueueTime() < rounds*tc {
		t.Errorf("bulk entry behind its WQ's batch queued %v, want at least %d children's engine time %v", later.QueueTime(), rounds, rounds*tc)
	}
}

// Disabling a WQ while children of its fetched batch are queued fails only
// the WQ's undispatched entries: the children drain while the queue is
// down, the batch completes, and they still yield to a higher-priority WQ.
func TestWQDisableFaultDrainsFetchedBatchChildren(t *testing.T) {
	us := sim.Time(time.Microsecond)
	r := arbiterRig(t)
	if _, err := r.dev.InjectFaults(FaultConfig{WQDisables: []WQDisable{
		{WQ: 1, At: 2 * us, Dur: 100 * us}, // outlasts the batch
	}}); err != nil {
		t.Fatal(err)
	}
	src, dst := r.alloc(arbChildren*arbChildSize), r.alloc(arbChildren*arbChildSize)
	express, bulk := r.dev.WQs()[0], r.dev.WQs()[1]
	batch := r.bulkBatch(t, bulk, src, dst)
	queued := make([]*Completion, 3)
	for i := range queued {
		r.submitAt(t, us, bulk, &queued[i])
	}
	var hi *Completion
	r.submitAt(t, 3*us, express, &hi)
	r.e.Run()

	for i, c := range queued {
		if rec := c.Record(); rec.Status != StatusWQError || !errors.Is(rec.Err, ErrWQDisabled) {
			t.Errorf("queued entry %d = %+v, want wq_error from the disable", i, rec)
		}
	}
	checkBatch(t, batch, src, dst)
	if batch.FinishTime > 102*us {
		t.Errorf("batch finished at %v, after the disable window ended", batch.FinishTime)
	}
	if hi.Record().Status != StatusSuccess {
		t.Errorf("express op = %+v", hi.Record())
	}
	if tc := r.childTime(); hi.QueueTime() > tc {
		t.Errorf("express op queued %v behind a disabled WQ's batch, want at most one child's engine time %v", hi.QueueTime(), tc)
	}
}
