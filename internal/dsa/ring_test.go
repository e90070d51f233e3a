package dsa

import (
	"bytes"
	"testing"
)

func TestSubmitRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ want, got int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		if c := NewSubmitRing(tc.want).Cap(); c != tc.got {
			t.Errorf("NewSubmitRing(%d).Cap() = %d, want %d", tc.want, c, tc.got)
		}
	}
}

func TestSubmitRingFIFOAndFull(t *testing.T) {
	r := NewSubmitRing(4)
	for i := 0; i < 4; i++ {
		if !r.TryPush(Descriptor{Size: int64(i)}, uint64(i)) {
			t.Fatalf("push %d into empty ring failed", i)
		}
	}
	if r.TryPush(Descriptor{}, 99) {
		t.Fatal("push into full ring succeeded")
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	for i := 0; i < 4; i++ {
		e, ok := r.Pop()
		if !ok {
			t.Fatalf("pop %d from non-empty ring failed", i)
		}
		if e.D.Size != int64(i) || e.Tag != uint64(i) {
			t.Fatalf("pop %d = {Size %d, Tag %d}, want in-order", i, e.D.Size, e.Tag)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	// Wrapped reuse: the released slots accept a second lap.
	for i := 0; i < 4; i++ {
		if !r.TryPush(Descriptor{}, uint64(i)) {
			t.Fatalf("wrapped push %d failed", i)
		}
	}
}

func TestSubmitRingZeroAlloc(t *testing.T) {
	r := NewSubmitRing(8)
	d := Descriptor{Op: OpMemmove, Size: 4096}
	if n := testing.AllocsPerRun(1000, func() {
		r.TryPush(d, 1)
		r.Pop()
	}); n != 0 {
		t.Errorf("push+pop allocated %.1f times per run, want 0", n)
	}
}

// FuzzSubmitRing model-checks the bounded ring against a reference FIFO
// of the requested capacity rounded up to a power of two (minimum 2):
// each script byte drives one operation (low bit selects push vs pop),
// and every observable — push/pop success, so full at exactly the
// rounded capacity, payload, tag, Len — must match the model exactly,
// across arbitrarily many laps of a tiny ring. The fuzzer owns the
// schedule; the model owns the truth.
func FuzzSubmitRing(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 2, 1, 0, 3, 1, 1})
	f.Add(uint8(1), bytes.Repeat([]byte{0, 1}, 64)) // two-slot ring, many laps
	f.Add(uint8(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(0), []byte{1, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, capacity uint8, script []byte) {
		r := NewSubmitRing(int(capacity))
		limit := 2
		for limit < int(capacity) {
			limit <<= 1
		}
		if r.Cap() != limit {
			t.Fatalf("Cap = %d for capacity %d, want %d", r.Cap(), capacity, limit)
		}
		var model []RingEntry
		seq := int64(0)
		for i, op := range script {
			if op&1 == 0 {
				d := Descriptor{Op: OpMemmove, Size: seq + 1}
				pushed := r.TryPush(d, uint64(seq))
				if want := len(model) < limit; pushed != want {
					t.Fatalf("op %d: TryPush = %v with %d/%d occupied, want %v",
						i, pushed, len(model), limit, want)
				}
				if pushed {
					model = append(model, RingEntry{D: d, Tag: uint64(seq)})
					seq++
				}
			} else {
				e, ok := r.Pop()
				if want := len(model) > 0; ok != want {
					t.Fatalf("op %d: Pop ok = %v with %d occupied, want %v", i, ok, len(model), want)
				}
				if ok {
					head := model[0]
					model = model[1:]
					if e.D.Size != head.D.Size || e.Tag != head.Tag {
						t.Fatalf("op %d: Pop = {Size %d, Tag %d}, want {Size %d, Tag %d} (lost, duplicated, or torn)",
							i, e.D.Size, e.Tag, head.D.Size, head.Tag)
					}
				}
			}
			if r.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model holds %d", i, r.Len(), len(model))
			}
		}
	})
}

// A WQ's ready hook has one owner, the single drain feeding it: a second
// hook is refused until the owner removes its own.
func TestWQReadyHookHasOneOwner(t *testing.T) {
	wq := newRig(t).dev.WQs()[0]
	if err := wq.SetOnReady(func() {}); err != nil {
		t.Fatalf("first hook refused: %v", err)
	}
	if err := wq.SetOnReady(func() {}); err == nil {
		t.Fatal("second hook installed over the first")
	}
	if err := wq.SetOnReady(nil); err != nil {
		t.Fatalf("removing the hook failed: %v", err)
	}
	if err := wq.SetOnReady(func() {}); err != nil {
		t.Fatalf("hook refused after the owner removed its own: %v", err)
	}
}
