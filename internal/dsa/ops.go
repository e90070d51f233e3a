package dsa

import (
	"errors"
	"fmt"

	"dsasim/internal/delta"
	"dsasim/internal/dif"
	"dsasim/internal/isal"
	"dsasim/internal/mem"
)

// span is one memory range a descriptor accesses, used for fault checking
// and traffic accounting.
type span struct {
	addr  mem.Addr
	n     int64
	write bool
}

// spansOf enumerates the ranges descriptor d touches into the caller's buf
// and returns the filled prefix. Destination sizes for size-changing
// operations (DIF, delta) are derived from the transfer size.
func spansOf(d *Descriptor, buf *[3]span) ([]span, error) {
	s := d.Size
	switch d.Op {
	case OpNop, OpDrain, OpBatch:
		return nil, nil
	case OpMemmove, OpCopyCRC:
		return fillSpans(buf, span{d.Src, s, false}, span{d.Dst, s, true}), nil
	case OpFill:
		return fillSpans(buf, span{d.Dst, s, true}), nil
	case OpCompare:
		return fillSpans(buf, span{d.Src, s, false}, span{d.Src2, s, false}), nil
	case OpComparePattern, OpCRCGen, OpCacheFlush:
		return fillSpans(buf, span{d.Src, s, false}), nil
	case OpCreateDelta:
		return fillSpans(buf, span{d.Src, s, false}, span{d.Src2, s, false}, span{d.Dst, d.MaxDst, true}), nil
	case OpApplyDelta:
		// Src is the delta record (Size bytes); Dst is the buffer being
		// patched (MaxDst bytes).
		return fillSpans(buf, span{d.Src, s, false}, span{d.Dst, d.MaxDst, true}), nil
	case OpDualcast:
		return fillSpans(buf, span{d.Src, s, false}, span{d.Dst, s, true}, span{d.Dst2, s, true}), nil
	case OpDIFInsert:
		if !d.DIFBlock.Valid() {
			return nil, fmt.Errorf("dsa: invalid DIF block size %d", d.DIFBlock)
		}
		out := s / int64(d.DIFBlock) * d.DIFBlock.Protected()
		return fillSpans(buf, span{d.Src, s, false}, span{d.Dst, out, true}), nil
	case OpDIFCheck:
		if !d.DIFBlock.Valid() {
			return nil, fmt.Errorf("dsa: invalid DIF block size %d", d.DIFBlock)
		}
		return fillSpans(buf, span{d.Src, s, false}), nil
	case OpDIFStrip:
		if !d.DIFBlock.Valid() {
			return nil, fmt.Errorf("dsa: invalid DIF block size %d", d.DIFBlock)
		}
		out := s / d.DIFBlock.Protected() * int64(d.DIFBlock)
		return fillSpans(buf, span{d.Src, s, false}, span{d.Dst, out, true}), nil
	case OpDIFUpdate:
		if !d.DIFBlock.Valid() {
			return nil, fmt.Errorf("dsa: invalid DIF block size %d", d.DIFBlock)
		}
		return fillSpans(buf, span{d.Src, s, false}, span{d.Dst, s, true}), nil
	default:
		return nil, fmt.Errorf("dsa: unsupported opcode %v", d.Op)
	}
}

// fillSpans copies spans into buf and returns the filled prefix.
func fillSpans(buf *[3]span, spans ...span) []span {
	return buf[:copy(buf[:], spans)]
}

// execute performs descriptor d's operation on address space as, moving real
// bytes, and returns the completion record. upTo limits the bytes processed
// (partial completion after a page fault); pass d.Size for full execution.
func execute(as *mem.AddressSpace, d *Descriptor, upTo int64) CompletionRecord {
	rec := CompletionRecord{Status: StatusSuccess, BytesCompleted: upTo}
	fail := func(err error) CompletionRecord {
		return CompletionRecord{Status: StatusError, Err: err}
	}
	switch d.Op {
	case OpNop, OpDrain, OpCacheFlush:
		// CacheFlush's timing effect is modelled at the LLC level by the
		// engine; there is no byte-level effect to apply here.
		rec.BytesCompleted = 0
		return rec

	case OpMemmove:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		dst, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		copy(dst[:upTo], src[:upTo])
		return rec

	case OpFill:
		dst, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		isal.Fill(dst[:upTo], d.Pattern)
		return rec

	case OpCompare:
		a, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		b, err := as.View(d.Src2, d.Size)
		if err != nil {
			return fail(err)
		}
		off, eq := isal.Compare(a[:upTo], b[:upTo])
		rec.Mismatch = !eq
		rec.Result = uint64(off)
		return rec

	case OpComparePattern:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		off, eq := isal.ComparePattern(src[:upTo], d.Pattern)
		rec.Mismatch = !eq
		rec.Result = uint64(off)
		return rec

	case OpCRCGen:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		rec.Result = uint64(isal.CRC32(d.CRCSeed, src[:upTo]))
		return rec

	case OpCopyCRC:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		dst, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		copy(dst[:upTo], src[:upTo])
		rec.Result = uint64(isal.CRC32(d.CRCSeed, src[:upTo]))
		return rec

	case OpDualcast:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		d1, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		d2, err := as.View(d.Dst2, d.Size)
		if err != nil {
			return fail(err)
		}
		copy(d1[:upTo], src[:upTo])
		copy(d2[:upTo], src[:upTo])
		return rec

	case OpCreateDelta:
		orig, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		mod, err := as.View(d.Src2, d.Size)
		if err != nil {
			return fail(err)
		}
		out, err := as.View(d.Dst, d.MaxDst)
		if err != nil {
			return fail(err)
		}
		used, err := delta.Create(out, orig, mod)
		if errors.Is(err, delta.ErrRecordFull) {
			return CompletionRecord{Status: StatusRecordFull, Err: err}
		}
		if err != nil {
			return fail(err)
		}
		rec.Result = uint64(used)
		return rec

	case OpApplyDelta:
		recBytes, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		dst, err := as.View(d.Dst, d.MaxDst)
		if err != nil {
			return fail(err)
		}
		if err := delta.Apply(dst, recBytes, int(d.Size)); err != nil {
			return fail(err)
		}
		return rec

	case OpDIFInsert:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		out := d.Size / int64(d.DIFBlock) * d.DIFBlock.Protected()
		dst, err := as.View(d.Dst, out)
		if err != nil {
			return fail(err)
		}
		if err := dif.Insert(dst, src, d.DIFBlock, d.DIFTags); err != nil {
			return fail(err)
		}
		return rec

	case OpDIFCheck:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		if err := dif.Check(src, d.DIFBlock, d.DIFTags); err != nil {
			var ce *dif.CheckError
			if errors.As(err, &ce) {
				return CompletionRecord{Status: StatusDIFError, Err: err, Result: uint64(ce.Block)}
			}
			return fail(err)
		}
		return rec

	case OpDIFStrip:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		out := d.Size / d.DIFBlock.Protected() * int64(d.DIFBlock)
		dst, err := as.View(d.Dst, out)
		if err != nil {
			return fail(err)
		}
		if err := dif.Strip(dst, src, d.DIFBlock, d.DIFTags); err != nil {
			var ce *dif.CheckError
			if errors.As(err, &ce) {
				return CompletionRecord{Status: StatusDIFError, Err: err, Result: uint64(ce.Block)}
			}
			return fail(err)
		}
		return rec

	case OpDIFUpdate:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		dst, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		if err := dif.Update(dst, src, d.DIFBlock, d.DIFTags, d.DIFTags2); err != nil {
			var ce *dif.CheckError
			if errors.As(err, &ce) {
				return CompletionRecord{Status: StatusDIFError, Err: err, Result: uint64(ce.Block)}
			}
			return fail(err)
		}
		return rec

	default:
		return CompletionRecord{Status: StatusBadOpcode, Err: fmt.Errorf("dsa: opcode %v", d.Op)}
	}
}
