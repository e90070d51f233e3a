package dsa

import (
	"errors"
	"fmt"

	"dsasim/internal/delta"
	"dsasim/internal/dif"
	"dsasim/internal/isal"
	"dsasim/internal/mem"
)

// span is one memory range a descriptor accesses. The engine resolves it
// once per execution (buf, off); fault checking, traffic accounting and
// the operation's data all read the resolved buffer.
type span struct {
	addr  mem.Addr
	n     int64
	write bool
	buf   *mem.Buffer
	off   int64
}

// bytes returns the span's resolved bytes.
func (sp *span) bytes() []byte { return sp.buf.Slice(sp.off, sp.n) }

// spansOf enumerates the ranges descriptor d touches into the caller's buf
// and returns the filled prefix. Destination sizes for size-changing
// operations (DIF, delta) are derived from the transfer size.
func spansOf(d *Descriptor, buf *[3]span) ([]span, error) {
	s := d.Size
	switch d.Op {
	case OpNop, OpDrain, OpBatch:
		return nil, nil
	case OpMemmove, OpCopyCRC:
		return fillSpans(buf, rd(d.Src, s), wr(d.Dst, s)), nil
	case OpFill:
		return fillSpans(buf, wr(d.Dst, s)), nil
	case OpCompare:
		return fillSpans(buf, rd(d.Src, s), rd(d.Src2, s)), nil
	case OpComparePattern, OpCRCGen, OpCacheFlush:
		return fillSpans(buf, rd(d.Src, s)), nil
	case OpCreateDelta:
		return fillSpans(buf, rd(d.Src, s), rd(d.Src2, s), wr(d.Dst, d.MaxDst)), nil
	case OpApplyDelta:
		// Src is the delta record (Size bytes); Dst is the buffer being
		// patched (MaxDst bytes).
		return fillSpans(buf, rd(d.Src, s), wr(d.Dst, d.MaxDst)), nil
	case OpDualcast:
		return fillSpans(buf, rd(d.Src, s), wr(d.Dst, s), wr(d.Dst2, s)), nil
	case OpDIFInsert:
		if !d.DIFBlock.Valid() {
			return nil, fmt.Errorf("dsa: invalid DIF block size %d", d.DIFBlock)
		}
		out := s / int64(d.DIFBlock) * d.DIFBlock.Protected()
		return fillSpans(buf, rd(d.Src, s), wr(d.Dst, out)), nil
	case OpDIFCheck:
		if !d.DIFBlock.Valid() {
			return nil, fmt.Errorf("dsa: invalid DIF block size %d", d.DIFBlock)
		}
		return fillSpans(buf, rd(d.Src, s)), nil
	case OpDIFStrip:
		if !d.DIFBlock.Valid() {
			return nil, fmt.Errorf("dsa: invalid DIF block size %d", d.DIFBlock)
		}
		out := s / d.DIFBlock.Protected() * int64(d.DIFBlock)
		return fillSpans(buf, rd(d.Src, s), wr(d.Dst, out)), nil
	case OpDIFUpdate:
		if !d.DIFBlock.Valid() {
			return nil, fmt.Errorf("dsa: invalid DIF block size %d", d.DIFBlock)
		}
		return fillSpans(buf, rd(d.Src, s), wr(d.Dst, s)), nil
	default:
		return nil, fmt.Errorf("dsa: unsupported opcode %v", d.Op)
	}
}

// rd and wr build a span read or written by the operation.
func rd(addr mem.Addr, n int64) span { return span{addr: addr, n: n} }
func wr(addr mem.Addr, n int64) span { return span{addr: addr, n: n, write: true} }

// fillSpans copies spans into buf and returns the filled prefix.
func fillSpans(buf *[3]span, spans ...span) []span {
	return buf[:copy(buf[:], spans)]
}

// execute performs descriptor d's operation over its resolved spans (laid
// out as spansOf fills them), moving real bytes, and returns the
// completion record. upTo limits the bytes processed (partial completion
// after a page fault); pass d.Size for full execution.
func execute(sp []span, d *Descriptor, upTo int64) CompletionRecord {
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
		copy(sp[1].bytes()[:upTo], sp[0].bytes()[:upTo])
		return rec

	case OpFill:
		isal.Fill(sp[0].bytes()[:upTo], d.Pattern)
		return rec

	case OpCompare:
		off, eq := isal.Compare(sp[0].bytes()[:upTo], sp[1].bytes()[:upTo])
		rec.Mismatch = !eq
		rec.Result = uint64(off)
		return rec

	case OpComparePattern:
		off, eq := isal.ComparePattern(sp[0].bytes()[:upTo], d.Pattern)
		rec.Mismatch = !eq
		rec.Result = uint64(off)
		return rec

	case OpCRCGen:
		rec.Result = uint64(isal.CRC32(d.CRCSeed, sp[0].bytes()[:upTo]))
		return rec

	case OpCopyCRC:
		src := sp[0].bytes()[:upTo]
		copy(sp[1].bytes()[:upTo], src)
		rec.Result = uint64(isal.CRC32(d.CRCSeed, src))
		return rec

	case OpDualcast:
		src := sp[0].bytes()[:upTo]
		copy(sp[1].bytes()[:upTo], src)
		copy(sp[2].bytes()[:upTo], src)
		return rec

	case OpCreateDelta:
		used, err := delta.Create(sp[2].bytes(), sp[0].bytes(), sp[1].bytes())
		if errors.Is(err, delta.ErrRecordFull) {
			return CompletionRecord{Status: StatusRecordFull, Err: err}
		}
		if err != nil {
			return fail(err)
		}
		rec.Result = uint64(used)
		return rec

	case OpApplyDelta:
		if err := delta.Apply(sp[1].bytes(), sp[0].bytes(), int(d.Size)); err != nil {
			return fail(err)
		}
		return rec

	case OpDIFInsert:
		if err := dif.Insert(sp[1].bytes(), sp[0].bytes(), d.DIFBlock, d.DIFTags); err != nil {
			return fail(err)
		}
		return rec

	case OpDIFCheck:
		return difRecord(rec, dif.Check(sp[0].bytes(), d.DIFBlock, d.DIFTags))

	case OpDIFStrip:
		return difRecord(rec, dif.Strip(sp[1].bytes(), sp[0].bytes(), d.DIFBlock, d.DIFTags))

	case OpDIFUpdate:
		return difRecord(rec, dif.Update(sp[1].bytes(), sp[0].bytes(), d.DIFBlock, d.DIFTags, d.DIFTags2))

	default:
		return CompletionRecord{Status: StatusBadOpcode, Err: fmt.Errorf("dsa: opcode %v", d.Op)}
	}
}

// difRecord is a DIF check's outcome: rec on success, a DIF error naming
// the failing block on a check failure, a plain error otherwise.
func difRecord(rec CompletionRecord, err error) CompletionRecord {
	if err == nil {
		return rec
	}
	var ce *dif.CheckError
	if errors.As(err, &ce) {
		return CompletionRecord{Status: StatusDIFError, Err: err, Result: uint64(ce.Block)}
	}
	return CompletionRecord{Status: StatusError, Err: err}
}
