package offload

import (
	"time"

	"dsasim/internal/dsa"
)

// Path selects the execution engine for one operation.
type Path int

// Execution paths.
const (
	// Auto applies the tenant policy: offload at or above OffloadThreshold,
	// coalesce smaller transfers when auto-batching is on, otherwise run
	// them on the core (G1/G2).
	Auto Path = iota
	// Hardware forces DSA execution.
	Hardware
	// Software forces the CPU baseline.
	Software
)

// Policy is the tunable encoding of the paper's guidelines. The zero value
// is not useful; start from DefaultPolicy.
type Policy struct {
	// OffloadThreshold is the G2 size floor: Auto-path operations below it
	// stay on the core (or enter the AutoBatcher when enabled). The paper
	// places the synchronous crossover near 4 KB (Fig 2a).
	OffloadThreshold int64

	// AdaptiveThreshold makes the G2 floor dynamic: WQ occupancy and
	// completion-latency history feed back into the Auto-path decision, so
	// a saturated device raises the effective threshold (shedding small
	// operations to the cores) and an idle one lowers it. See
	// Tenant.EffectiveThreshold and Service.Pressure.
	AdaptiveThreshold bool

	// AdmitRate, when positive, rate-limits this tenant's hardware
	// submissions with one token bucket that every path draws — Futures,
	// batches, pipelines and plane lanes: tokens accrue at AdmitRate per
	// second of virtual time, and each logical submission — a work
	// descriptor, or one batch flush regardless of how many per-socket
	// sub-batches placement shards it into — costs one. Zero (the
	// default) disables admission control. This is the shared-WQ
	// fairness knob: a bulk tenant's burst is shed or delayed before it
	// occupies slots a latency-sensitive tenant needs.
	AdmitRate float64

	// AdmitBurst is the bucket capacity — the submissions a tenant may
	// issue back-to-back before the rate applies. Values below 1 act as 1.
	AdmitBurst int

	// AdmitWait selects the over-limit behavior: false (default) sheds the
	// submission with ErrAdmission; true delays the submitting process
	// until a token accrues (backpressure instead of load shedding).
	AdmitWait bool

	// AutoBatch, when positive, enables transparent coalescing (G1): Auto-
	// path copies and fills below OffloadThreshold queue in the tenant's
	// AutoBatcher and flush as one batch descriptor once AutoBatch
	// operations accumulate (or on Flush/Wait).
	AutoBatch int

	// LoadAware lets the Placement scheduler leave the data's home socket
	// when it is backlogged: per-socket queueing-delay estimates (WQ
	// latency EWMA × occupancy, rolled up through the service Topology)
	// are blended against the UPI transfer penalty of each remote data
	// leg, so a saturated local device loses to an idle remote one
	// exactly when the detour is cheaper (§3.3/§5: queueing delay dwarfs
	// the cross-socket penalty long before the link saturates). Off by
	// default: data-only placement is deterministic and optimal under
	// even load.
	LoadAware bool

	// SplitBatches lets the batch paths shard a mixed-home flush into
	// per-socket sub-batches, each routed to a device local to its
	// slice's data (G4). It only engages under a data-aware scheduler
	// (Placement); fence-carrying batches are never split. Disable to
	// force every batch onto a single WQ regardless of data placement.
	SplitBatches bool

	// CoalesceCount enables completion-interrupt coalescing for Interrupt-
	// mode waits: up to CoalesceCount finished completion records are
	// announced by one interrupt, so a window of N completions costs one
	// delivery latency + handler instead of N (§4.4's per-descriptor
	// delivery cost, amortized the way production drivers moderate
	// interrupts per queue). Values ≤ 1 disable coalescing. The knob is
	// resolved per QoS class: Bulk tenants coalesce with the full window,
	// while LatencySensitive tenants bypass moderation entirely — their
	// interrupts fire per descriptor, keeping delivery off the foreground
	// tail — unless CoalesceAll opts them in. Poll and UMWAIT waits are
	// never delayed by coalescing.
	CoalesceCount int

	// CoalesceWindow bounds how long a finished record may wait for
	// siblings before the moderation timer announces the partial batch (a
	// count-only trigger would strand tails forever). Zero with a positive
	// CoalesceCount uses DefaultCoalesceWindow; the device rounds the
	// window up to its moderation-timer tick (Timing.IntrCoalesceTick).
	CoalesceWindow time.Duration

	// CoalesceAdaptive sizes the coalescing window from each tenant's
	// observed completion inter-arrival rate instead of the static
	// CoalesceWindow: the window tracks the virtual time a full
	// CoalesceCount of completions actually takes, so a fast tenant's
	// tails are announced promptly while a slow one still fills its count.
	// The telemetry-derived window is clamped between the device's
	// moderation tick and the static window (CoalesceWindow or the
	// default), quantized to the tick, and retuned only on a ≥25% move so
	// jitter does not churn coalescer rebuilds. No effect unless
	// CoalesceCount enables coalescing.
	CoalesceAdaptive bool

	// CoalesceAll applies the coalescing window to every QoS class,
	// including LatencySensitive (whose default is to bypass). Useful to
	// quantify what moderation would cost a foreground tenant's tail —
	// see the coalesce experiment — not recommended as an operating mode.
	CoalesceAll bool

	// Wait is the completion mode the pipeline driver waits its chains
	// with, and the default for callers that follow the policy: Poll,
	// UMWait, or Interrupt (§4.4, Fig 11).
	Wait WaitMode

	// MaxRetries bounds full-WQ submission retries. Negative means retry
	// until the descriptor is accepted (the classic ENQCMD loop); zero or
	// more surfaces dsa.ErrWQFull to the caller after that many retries,
	// letting it re-schedule or shed load.
	MaxRetries int

	// RetryMax bounds fault recovery per operation: how many times a
	// faulted completion (page-fault partial, WQ error, device offline)
	// is re-submitted to hardware before the error surfaces (or the
	// software fallback engages). Every path — Future, pipeline chain,
	// plane lane — re-submits immediately, with no backoff. Partial
	// completions continue from CompletionRecord.BytesCompleted for
	// byte-prefix ops (copy/fill/dualcast); result-producing ops and
	// pipeline chains re-run whole. Zero (the default) disables recovery:
	// the first fault is terminal.
	RetryMax int

	// FallbackAfter, when positive, runs the remainder of an operation on
	// the submitting core after that many consecutive faulted hardware
	// attempts, bounding worst-case latency under a fault storm the way
	// production offload libraries degrade to memcpy. It engages within
	// the RetryMax budget (a fallback is the terminal attempt), on the
	// Future and pipeline paths (a lone-stage chain), for any op the
	// software executor runs. DTO's redo-on-fault is FallbackAfter 1
	// (dto.Policy).
	FallbackAfter int

	// SLOBudget, when positive, is the tenant's per-operation completion
	// latency budget — the per-QoS-class p99 target the fleet scenarios
	// gate on. Every resolved operation (hardware, software, plane- or
	// pipeline-submitted) is scored against it on Stats.SLOOk/SLOMiss.
	// Pure accounting: the budget never changes scheduling or admission.
	SLOBudget time.Duration

	// Flags is OR-ed into every hardware descriptor (cache control,
	// block-on-fault, ...).
	Flags dsa.Flags
}

// DefaultCoalesceWindow is the moderation-timer bound used when a policy
// sets CoalesceCount without a window: generous enough that a bulk burst
// usually hits the count trigger first, tight enough that a stranded tail
// is announced within a handful of delivery latencies.
const DefaultCoalesceWindow = 8 * time.Microsecond

// DefaultPolicy returns the guideline defaults: static 4 KB offload
// threshold, auto-batching off, mixed-home batch splitting on (it only
// engages under a data-aware scheduler), polled completions, interrupt
// coalescing off, block-until-accepted submission, admission control off.
func DefaultPolicy() Policy {
	return Policy{
		OffloadThreshold: 4096,
		AutoBatch:        0,
		SplitBatches:     true,
		Wait:             Poll,
		MaxRetries:       -1,
	}
}

// Stats counts tenant activity.
type Stats struct {
	HWOps    int64 // descriptors submitted to hardware (incl. batch parents)
	SWOps    int64 // operations executed on the core
	HWBytes  int64 // payload bytes submitted (a batch parent counts its children)
	SWBytes  int64
	Batches  int64 // batch descriptors submitted (explicit, auto, and pipeline chains)
	Coalesce int64 // operations absorbed into auto-batches
	Splits   int64 // per-socket sub-batches created from mixed-home flushes
	Shed     int64 // logical flushes rejected by admission control
	Delayed  int64 // logical flushes delayed by admission control

	// Failures counts operations that ended failed, on every path: a
	// refused submission, an error result, or a fault recovery did not
	// absorb. A recovered operation adds none; a pipeline counts once,
	// whichever chain failed; coalesced siblings of one failed batch count
	// once.
	Failures int64

	// Pipelines counts pipeline DAG submissions (pipeline.go) — each one
	// cost a single admission token regardless of stage count.
	Pipelines int64

	// AdmitWakeups counts the process wakeups admission-control delays
	// cost. With coalescing on, delayed retries fold into the moderation
	// window, so this stays well below one wakeup per delayed sub-batch.
	AdmitWakeups int64

	// Drifts counts the workload regime shifts the telemetry drift
	// detector flagged on this tenant's completion streams (sustained
	// window-over-window p99/rate deltas).
	Drifts int64

	// SLOOk/SLOMiss score every resolved operation — a pipeline once, as
	// a whole — against the tenant's Policy.SLOBudget (both zero when the
	// policy sets no budget). The
	// fleet driver reads them as a cross-check of its own per-class
	// latency sketches.
	SLOOk   int64
	SLOMiss int64

	// Fault-recovery counters (see Policy.RetryMax/FallbackAfter and
	// Plane failover), counted by one decision shared by the Future,
	// pipeline and plane paths. Faults counts faulted hardware completions
	// observed, whatever the retry budget; Retries the hardware
	// re-submissions recovery issued; Fallbacks the operations finished
	// on-core after consecutive faults; Failovers the plane entries a
	// drain found behind a dead WQ and moved off its ring, re-queued
	// elsewhere or shed.
	Faults    int64
	Retries   int64
	Fallbacks int64
	Failovers int64
}
