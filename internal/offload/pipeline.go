// Operation pipelines: fused multi-op DAGs (§4/§6, ROADMAP item 4).
//
// The paper's central software lesson is that DSA wins come from amortizing
// fixed costs — descriptor preparation, the portal write, engine setup, the
// completion round trip — across chained work. A Pipeline lets a caller
// declare a small DAG of dependent transform stages (DIF-strip → CRC →
// move, decompress → CRC → move, ...) and submits every run of consecutive
// device stages as ONE fenced batch: one admission token, one portal write,
// one completion window for the whole chain, with FlagFence encoding the
// level ordering inside the batch (the device's issueReady barrier). The
// sequential alternative pays the full submit→wait round trip between every
// stage — the pipeline experiment measures the gap.
//
// Stages that no DSA opcode covers (ISA-L decompression, fabric sends) run
// through the StageExecutor interface on the same sim timeline: the driver
// flushes the pending chain, runs the software stage on the tenant's core,
// and resumes fusing. Placement is intermediate-buffer-aware: most of a
// pipeline's operands are scratch intermediates that do not exist until the
// pipeline picks a socket, so its request to the placement cost model
// (Placement.route) carries the *fixed* legs only, and AllocScratch then
// pins the intermediates (and with them every stage) to the winner.
package offload

import (
	"fmt"

	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Ref names one stage operand: a fixed address that exists before the
// pipeline runs (At), a scratch intermediate the pipeline allocates on the
// placement-chosen socket at Submit (Pipeline.Scratch), or an argument whose
// address is bound before each Submit (Pipeline.Arg). The zero Ref means
// "operand unused".
type Ref struct {
	addr mem.Addr
	sc   int // 1+index into the pipeline's scratch declarations; 0 = not scratch
	arg  int // 1+index into the pipeline's Arg declarations; 0 = not an Arg
}

// At references a fixed address (an existing buffer).
func At(a mem.Addr) Ref { return Ref{addr: a} }

// set reports whether the operand is used.
func (r Ref) set() bool { return r != Ref{} }

// StageIO is the resolved operand view handed to a StageExecutor once the
// pipeline has placed its scratch buffers.
type StageIO struct {
	Src, Dst mem.Addr
	Size     int64 // stage input size
	MaxDst   int64 // output bound for expanding stages (0: same as Size)
}

// StageExecutor runs one non-DSA pipeline stage on the sim timeline. Run
// executes in the pipeline driver process after every earlier level has
// completed; it should sleep the stage's modelled duration on p (charging
// the tenant's core where appropriate) and return the stage's result value.
// Engine names the executing engine type for reports.
type StageExecutor interface {
	Engine() string
	Run(p *sim.Proc, t *Tenant, io StageIO) (uint64, error)
}

// Inflate is the ISA-L software decompression stage (DSA has no decompress
// opcode): it inflates Size compressed bytes at Src into at most MaxDst
// bytes at Dst on the tenant's core and returns the produced length.
type Inflate struct{}

// Engine implements StageExecutor.
func (Inflate) Engine() string { return "isal" }

// Run implements StageExecutor.
func (Inflate) Run(p *sim.Proc, t *Tenant, io StageIO) (uint64, error) {
	n, dur, err := t.Core.Decompress(io.Dst, io.Src, io.Size, io.MaxDst)
	if err != nil {
		return 0, err
	}
	p.Sleep(dur)
	return uint64(n), nil
}

// FabricSend streams the stage's source bytes into a fabric pipe (NIC,
// inter-node link) — the terminal stage of a transform-then-transmit
// pipeline. The driver blocks until the pipe drains the payload.
type FabricSend struct{ Pipe *sim.Pipe }

// Engine implements StageExecutor.
func (FabricSend) Engine() string { return "fabric" }

// Run implements StageExecutor.
func (f FabricSend) Run(p *sim.Proc, t *Tenant, io StageIO) (uint64, error) {
	done := f.Pipe.Reserve(io.Size)
	if now := p.Now(); done > now {
		p.Sleep(done - now)
	}
	return uint64(io.Size), nil
}

// Stage is a handle to one pipeline stage, used to declare dependencies
// (After) and to read the stage's result once the pipeline completes.
type Stage struct {
	pl *Pipeline
	i  int
}

// Result returns the stage's op-specific result value (CRC, delta-record
// size, produced bytes), valid once the pipeline's Future has resolved.
func (s *Stage) Result() uint64 { return s.pl.stages[s.i].result }

// StageOption customizes one stage at declaration.
type StageOption func(*pstage)

// After declares dependencies: the stage runs only after every listed stage
// completes. Stages without dependencies form the DAG's first level.
func After(deps ...*Stage) StageOption {
	return func(st *pstage) { st.deps = append(st.deps, deps...) }
}

// pstage is the internal stage record: a descriptor template whose operand
// addresses are re-resolved from the Refs at every Submit, or a software
// executor, plus the DAG level computed from its dependencies.
type pstage struct {
	d    dsa.Descriptor // template for device stages (op, size, op params)
	exec StageExecutor  // non-nil for software/fabric stages

	src, src2, dst, dst2 Ref

	deps   []*Stage
	level  int
	result uint64
}

// Pipeline is one declared DAG. Declare it once, then Bind and Submit per
// iteration. The first Submit compiles the shape (level order and driver);
// declaring a stage after it is an error. A pipeline is reusable once its
// Future resolves: scratch buffers recycle through the tenant pool and
// stage state is reset. Each run's Future comes from the tenant's free
// list, so a run reuses an earlier run's Future only once the caller has
// released it, and a handle still held never observes a later run.
// Submitting while a run is still in flight is an error.
type Pipeline struct {
	t      *Tenant
	stages []pstage
	err    error

	scratchSizes []int64
	scratchBufs  []*mem.Buffer
	args         []mem.Addr // bound Arg addresses; 0 = unbound

	// driver is pl.run, bound by the first Submit; non-nil marks the
	// shape compiled. cur is the in-flight run's Future, nil when idle.
	driver func(*sim.Proc)
	cur    *Future

	// then is the completion hook Then installs, or nil.
	then func(p *sim.Proc, f *Future)

	// Reused driver buffers.
	order    []int
	chain    []dsa.Descriptor
	chainIdx []int
	legs     []PipelineLeg

	// home is the socket the last Submit placed the pipeline on.
	home int

	// failed is the index of the stage whose fault ended the last
	// submission (-1 when the last run succeeded). Stages after it in a
	// fenced chain were poisoned — never attempted — by the device's
	// fence barrier.
	failed int
}

// NewPipeline starts an empty pipeline DAG for the tenant.
func (t *Tenant) NewPipeline() *Pipeline { return &Pipeline{t: t, home: -1, failed: -1} }

// FailedStage returns the index (declaration order) of the stage whose
// fault ended the last submission, or -1 when it succeeded. Valid once
// the submission's Future has resolved.
func (pl *Pipeline) FailedStage() int { return pl.failed }

// Then installs fn as the pipeline's completion hook: the driver process
// calls it once per run, right after the run's Future resolves, whether
// the run succeeded or failed, with the run's Future. The pipeline is
// idle when fn runs, so fn may Wait on the Future without parking,
// Release it if no other process waits on it, and Bind and Submit the
// pipeline again. A caller that resolves every run here needs no process
// of its own parked on the Future.
func (pl *Pipeline) Then(fn func(p *sim.Proc, f *Future)) { pl.then = fn }

// Scratch declares a size-byte intermediate buffer. It is allocated (from
// the tenant's scratch pool) on the pipeline's chosen socket at Submit and
// released when the pipeline completes — referencing it is what makes a
// stage's placement follow the intermediate data.
func (pl *Pipeline) Scratch(size int64) Ref {
	pl.scratchSizes = append(pl.scratchSizes, size)
	return Ref{sc: len(pl.scratchSizes)}
}

// Arg declares an operand whose address is supplied by Bind before Submit.
// A bound Arg is a fixed leg for placement, so one compiled pipeline serves
// every burst of a recurring shape, each with its own buffers.
func (pl *Pipeline) Arg() Ref {
	pl.args = append(pl.args, 0)
	return Ref{arg: len(pl.args)}
}

// Bind sets the address of an Arg operand for the following submissions.
// It must not be called while a submission is in flight.
func (pl *Pipeline) Bind(r Ref, a mem.Addr) {
	if r.arg == 0 || r.arg > len(pl.args) {
		pl.err = fmt.Errorf("offload: Bind of an operand that is not a pipeline Arg")
		return
	}
	pl.args[r.arg-1] = a
}

// add appends one stage, computing its DAG level from its dependencies.
func (pl *Pipeline) add(st pstage, opts []StageOption) *Stage {
	for _, o := range opts {
		o(&st)
	}
	for _, dep := range st.deps {
		if dep == nil || dep.pl != pl {
			pl.err = fmt.Errorf("offload: pipeline stage depends on a stage of another pipeline")
			continue
		}
		if l := pl.stages[dep.i].level + 1; l > st.level {
			st.level = l
		}
	}
	// Fixed addresses in a generic descriptor template become fixed refs so
	// placement and re-resolution treat every stage uniformly.
	if !st.src.set() && st.d.Src != 0 {
		st.src = At(st.d.Src)
	}
	if !st.src2.set() && st.d.Src2 != 0 {
		st.src2 = At(st.d.Src2)
	}
	if !st.dst.set() && st.d.Dst != 0 {
		st.dst = At(st.d.Dst)
	}
	if !st.dst2.set() && st.d.Dst2 != 0 {
		st.dst2 = At(st.d.Dst2)
	}
	pl.stages = append(pl.stages, st)
	return &Stage{pl: pl, i: len(pl.stages) - 1}
}

// Copy appends a device move stage.
func (pl *Pipeline) Copy(dst, src Ref, n int64, opts ...StageOption) *Stage {
	return pl.add(pstage{d: dsa.Descriptor{Op: dsa.OpMemmove, Size: n}, src: src, dst: dst}, opts)
}

// Fill appends a device pattern-fill stage.
func (pl *Pipeline) Fill(dst Ref, n int64, pattern uint64, opts ...StageOption) *Stage {
	return pl.add(pstage{d: dsa.Descriptor{Op: dsa.OpFill, Size: n, Pattern: pattern}, dst: dst}, opts)
}

// CRC32 appends a device CRC-generation stage; the stage Result is the CRC.
func (pl *Pipeline) CRC32(src Ref, n int64, seed uint32, opts ...StageOption) *Stage {
	return pl.add(pstage{d: dsa.Descriptor{Op: dsa.OpCRCGen, Size: n, CRCSeed: seed}, src: src}, opts)
}

// CopyCRC appends a fused device copy+CRC stage.
func (pl *Pipeline) CopyCRC(dst, src Ref, n int64, seed uint32, opts ...StageOption) *Stage {
	return pl.add(pstage{d: dsa.Descriptor{Op: dsa.OpCopyCRC, Size: n, CRCSeed: seed}, src: src, dst: dst}, opts)
}

// Compare appends a device compare stage; Result is the mismatch offset.
func (pl *Pipeline) Compare(a, b Ref, n int64, opts ...StageOption) *Stage {
	return pl.add(pstage{d: dsa.Descriptor{Op: dsa.OpCompare, Size: n}, src: a, src2: b}, opts)
}

// DIFStrip appends a device DIF verify-and-strip stage over n protected
// bytes.
func (pl *Pipeline) DIFStrip(dst, src Ref, n int64, bs dif.BlockSize, tags dif.Tags, opts ...StageOption) *Stage {
	return pl.add(pstage{
		d:   dsa.Descriptor{Op: dsa.OpDIFStrip, Size: n, DIFBlock: bs, DIFTags: tags},
		src: src, dst: dst,
	}, opts)
}

// DIFInsert appends a device DIF protection-insert stage over n raw bytes.
func (pl *Pipeline) DIFInsert(dst, src Ref, n int64, bs dif.BlockSize, tags dif.Tags, opts ...StageOption) *Stage {
	return pl.add(pstage{
		d:   dsa.Descriptor{Op: dsa.OpDIFInsert, Size: n, DIFBlock: bs, DIFTags: tags},
		src: src, dst: dst,
	}, opts)
}

// CreateDelta appends a device delta-record stage; Result is the record
// bytes used.
func (pl *Pipeline) CreateDelta(record, orig, mod Ref, n, maxRecord int64, opts ...StageOption) *Stage {
	return pl.add(pstage{
		d:   dsa.Descriptor{Op: dsa.OpCreateDelta, Size: n, MaxDst: maxRecord},
		src: orig, src2: mod, dst: record,
	}, opts)
}

// Stage appends a generic device stage from a descriptor template (operand
// addresses may be fixed in the template or left zero and set via refs on
// the specialized helpers).
func (pl *Pipeline) Stage(d dsa.Descriptor, opts ...StageOption) *Stage {
	return pl.add(pstage{d: d}, opts)
}

// Exec appends a software/fabric stage run through x. n is the stage input
// size; maxDst bounds the output for expanding stages (0 means n).
func (pl *Pipeline) Exec(x StageExecutor, dst, src Ref, n, maxDst int64, opts ...StageOption) *Stage {
	return pl.add(pstage{d: dsa.Descriptor{Size: n, MaxDst: maxDst}, exec: x, src: src, dst: dst}, opts)
}

// Decompress appends an ISA-L inflate stage (software: DSA has no
// decompress opcode); Result is the produced byte count.
func (pl *Pipeline) Decompress(dst, src Ref, n, maxDst int64, opts ...StageOption) *Stage {
	return pl.Exec(Inflate{}, dst, src, n, maxDst, opts...)
}

// Send appends a fabric-send stage streaming n bytes from src into pipe.
func (pl *Pipeline) Send(pipe *sim.Pipe, src Ref, n int64, opts ...StageOption) *Stage {
	return pl.Exec(FabricSend{Pipe: pipe}, Ref{}, src, n, 0, opts...)
}

// Home returns the socket the last Submit placed the pipeline on (-1 before
// the first submission).
func (pl *Pipeline) Home() int { return pl.home }

// resolve maps a Ref to its concrete address for the current submission.
func (pl *Pipeline) resolve(r Ref) mem.Addr {
	switch {
	case r.sc != 0:
		return pl.scratchBufs[r.sc-1].Addr(0)
	case r.arg != 0:
		return pl.args[r.arg-1]
	}
	return r.addr
}

// homeSocket routes this submission through the placement cost model on
// its fixed and bound data legs only — scratch intermediates follow the
// choice. The tenant's socket is the home and keys the route's hysteresis,
// and its class selects the QoS pool the pinned chains will use. The
// request is load-aware whatever Policy.LoadAware says: the scratch home
// holds for the whole run, so every chain of it pays a backlog found here.
// Under a scheduler that ignores data homes the tenant's socket serves.
func (pl *Pipeline) homeSocket() int {
	t := pl.t
	if t.S.place == nil {
		return t.Core.Socket
	}
	pl.legs = pl.legs[:0]
	for i := range pl.stages {
		st := &pl.stages[i]
		pl.addLeg(st.src, st.d.Size, false)
		pl.addLeg(st.src2, st.d.Size, false)
		pl.addLeg(st.dst, st.d.Size, true)
		pl.addLeg(st.dst2, st.d.Size, true)
	}
	req := Request{Socket: t.Core.Socket, Class: t.class, LoadAware: true, Topo: t.S.topo, legs: pl.legs}
	return t.S.place.route(req, t.Core.Socket)
}

// addLeg records one fixed or bound operand as a placement leg; scratch
// operands are skipped — they live wherever the pipeline lands, by
// construction.
func (pl *Pipeline) addLeg(r Ref, size int64, write bool) {
	if !r.set() || r.sc != 0 {
		return
	}
	n := pl.t.AS.NodeAt(pl.resolve(r))
	if n == nil {
		return
	}
	pl.legs = append(pl.legs, PipelineLeg{Node: n, Size: size, Write: write})
}

// buildOrder fills pl.order with stage indices sorted by level (stable:
// declaration order within a level), allocation-free at steady state.
func (pl *Pipeline) buildOrder() {
	pl.order = pl.order[:0]
	maxLevel := 0
	for i := range pl.stages {
		if pl.stages[i].level > maxLevel {
			maxLevel = pl.stages[i].level
		}
	}
	for l := 0; l <= maxLevel; l++ {
		for i := range pl.stages {
			if pl.stages[i].level == l {
				pl.order = append(pl.order, i)
			}
		}
	}
}

// Submit places and launches the pipeline, compiling it first if this is
// its first submission, and returns a Future that resolves when the final
// stage completes. The whole DAG costs one admission token. The driver runs
// as its own sim process: consecutive device levels are fused into fenced
// batch chains — one portal write and one completion wait per chain — with
// software stages executed between chains. Submit returns as soon as the
// driver is launched, so callers can keep several pipelines in flight.
func (pl *Pipeline) Submit(p *sim.Proc) (*Future, error) {
	t := pl.t
	switch {
	case pl.err != nil:
		return nil, pl.err
	case len(pl.stages) == 0:
		return nil, fmt.Errorf("offload: empty pipeline")
	case pl.driver != nil && len(pl.order) != len(pl.stages):
		return nil, fmt.Errorf("offload: pipeline stage declared after its first Submit")
	case pl.cur != nil && !t.closed: // admit refuses a closed tenant
		return nil, fmt.Errorf("offload: pipeline submitted while its previous run is in flight")
	}
	for i, a := range pl.args {
		if a == 0 {
			return nil, fmt.Errorf("offload: pipeline Arg %d is unbound", i)
		}
	}
	if pl.driver == nil {
		pl.buildOrder()
		pl.driver = pl.run
	}
	if err := t.admit(p); err != nil {
		return nil, err
	}
	t.stats.Pipelines++
	pl.home = pl.homeSocket()
	pl.scratchBufs = pl.scratchBufs[:0]
	for _, size := range pl.scratchSizes {
		pl.scratchBufs = append(pl.scratchBufs, t.AllocScratch(size, pl.home))
	}
	for i := range pl.stages {
		pl.stages[i].result = 0
	}
	pl.failed = -1
	f := t.newFuture()
	f.pipe, f.op, f.start = true, dsa.OpBatch, p.Now()
	pl.cur = f
	t.S.E.Go("pipeline", pl.driver)
	return f, nil
}

// run is one run's driver process: it walks the DAG, resolves the run's
// Future with the outcome and then hands the Future to the completion
// hook, if any.
func (pl *Pipeline) run(p *sim.Proc) {
	f := pl.cur
	pl.finish(pl.drive(p))
	if pl.then != nil {
		pl.then(p, f)
	}
}

// drive walks the DAG level by level: device stages accumulate into the
// current fenced chain (a fence opens every new level, so the device's
// issueReady barrier enforces the dependency order inside one batch), and a
// level containing software stages first flushes the chain — its results
// are inputs — then runs them inline. Chains are bounded by the device
// batch limit; a chain cut mid-level flushes and the remainder continues
// unfenced (the flush wait is a stronger barrier than the fence it
// replaces). It returns the first chain or software-stage error.
func (pl *Pipeline) drive(p *sim.Proc) error {
	maxChain := pl.t.S.maxBatch
	if maxChain < 2 {
		maxChain = 2
	}
	pl.chain = pl.chain[:0]
	pl.chainIdx = pl.chainIdx[:0]
	for i := 0; i < len(pl.order); {
		level := pl.stages[pl.order[i]].level
		j := i
		hasExec := false
		for ; j < len(pl.order) && pl.stages[pl.order[j]].level == level; j++ {
			if pl.stages[pl.order[j]].exec != nil {
				hasExec = true
			}
		}
		if hasExec {
			// Software stages read the previous levels' outputs: the chain
			// must land before they run.
			if err := pl.flush(p); err != nil {
				return err
			}
			for _, si := range pl.order[i:j] {
				st := &pl.stages[si]
				if st.exec == nil {
					continue
				}
				io := StageIO{
					Src:    pl.resolve(st.src),
					Dst:    pl.resolve(st.dst),
					Size:   st.d.Size,
					MaxDst: st.d.MaxDst,
				}
				if io.MaxDst == 0 {
					io.MaxDst = io.Size
				}
				res, err := st.exec.Run(p, pl.t, io)
				if err != nil {
					return err
				}
				st.result = res
			}
		}
		newLevel := true
		for _, si := range pl.order[i:j] {
			st := &pl.stages[si]
			if st.exec != nil {
				continue
			}
			if len(pl.chain) >= maxChain {
				if err := pl.flush(p); err != nil {
					return err
				}
			}
			d := st.d
			d.Src = pl.resolve(st.src)
			d.Src2 = pl.resolve(st.src2)
			d.Dst = pl.resolve(st.dst)
			d.Dst2 = pl.resolve(st.dst2)
			if newLevel && len(pl.chain) > 0 {
				// The first device stage of a new level fences the chain:
				// everything queued so far must complete before this level
				// issues (engine.go issueReady).
				d.Flags |= dsa.FlagFence
			}
			pl.chain = append(pl.chain, d)
			pl.chainIdx = append(pl.chainIdx, si)
			newLevel = false
		}
		i = j
	}
	return pl.flush(p)
}

// flush submits the pending chain on the pipeline's socket, waits for it
// and recovers it, then records its stages' results. The device reads a
// batch's descriptor array only until the batch completes, so the chain
// buffer is handed over as is and reused once the wait returns.
func (pl *Pipeline) flush(p *sim.Proc) error {
	if len(pl.chain) == 0 {
		return nil
	}
	t := pl.t
	f, err := t.submitChain(p, pl.chain, 0, pl.home)
	if err != nil {
		return err
	}
	pl.cur.res.Hardware = true
	mode := t.policy.Wait
	f.cl.Wait(p, f.comp, mode)
	// A faulted chain recovers like a Future, on the pipeline's socket: a
	// lone stage continues from its completed prefix, a batch re-runs
	// whole. Its ops are idempotent by construction (they write scratch or
	// their declared outputs), and the fence barrier poisoned — never ran —
	// everything past the fault.
	t.recover(p, f, mode, pl.home)
	// The chain is not scored against the SLO budget on its own: the
	// pipeline Future scores the whole DAG once, when it resolves.
	rec := f.res.Record // the lone stage finished on the core
	if !f.done {
		rec = f.comp.Record()
	}
	switch {
	case rec.Status != dsa.StatusSuccess:
		err = pl.chainError(&rec)
	case len(pl.chainIdx) == 1:
		pl.stages[pl.chainIdx[0]].result = rec.Result
	default:
		for k, c := range rec.Children {
			pl.stages[pl.chainIdx[k]].result = c.Result
		}
	}
	// rec.Children alias the batch state that returns with the chain's
	// completion, so the chain's Future is released only after this read.
	t.freeFuture(f)
	if err != nil {
		return err
	}
	pl.chain = pl.chain[:0]
	pl.chainIdx = pl.chainIdx[:0]
	return nil
}

// finish releases the run's scratch buffers and resolves its Future. The
// pipeline is idle — submittable again — before the waiters wake.
func (pl *Pipeline) finish(err error) {
	t := pl.t
	for _, b := range pl.scratchBufs {
		t.FreeScratch(b)
	}
	f := pl.cur
	pl.cur = nil
	if err == nil {
		f.res.Record = dsa.CompletionRecord{Status: dsa.StatusSuccess, Result: uint64(len(pl.stages))}
	} else {
		t.stats.Failures++
	}
	f.err, f.ran = err, true
	f.sig.Broadcast(t.S.E)
}

// chainError maps a failed chain onto the pipeline stage that caused it,
// recording it in pl.failed and wrapping the record's error with the stage
// identity. For a batch chain the failing stage is the first failed child
// (later same-chain stages were poisoned by the fence and hold StatusNone
// "never attempted" records); otherwise — a lone-descriptor chain, or a
// batch killed before any child ran — it is the chain's first stage. The
// fault sentinels (ErrFaulted, ErrDeviceFailed) survive through
// recordError, so errors.Is holds through the pipeline Future.
func (pl *Pipeline) chainError(rec *dsa.CompletionRecord) error {
	stage, failed := pl.chainIdx[0], *rec
	if k := firstFailedChild(rec); k >= 0 && k < len(pl.chainIdx) {
		stage, failed = pl.chainIdx[k], rec.Children[k]
	}
	pl.failed = stage
	return fmt.Errorf("offload: pipeline stage %d (%v): %w", stage, pl.stages[stage].d.Op, recordError(failed))
}
